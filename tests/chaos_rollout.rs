//! End-to-end chaos campaign (ISSUE acceptance): a seeded multi-service
//! rollout under domain-correlated faults completes with zero panics,
//! every injected fault lands in the `chaos.*` ledger, quarantine backs
//! off exponentially, and the whole report replays bit-identically across
//! 1 and 8 workers. Ablations then show each safety mechanism changing a
//! real outcome: the circuit breaker throttles a correlated rollback
//! storm, quarantine retries rescue a service that one-strike demotion
//! would kill, and the canary budget paces an otherwise-instant ramp.

use softsku::cluster::{ChaosConfig, FailureDomain, FleetTopology, StagedFleet, StagedFleetConfig};
use softsku::rollout::{
    demo_campaign, CanaryBudget, CoordinatorConfig, CoordinatorReport, FleetCoordinator,
    ServicePhase, ServicePlan,
};
use softsku::telemetry::streams::IdentitySeed;
use softsku::telemetry::{LedgerDomain, LedgerKey, SeriesKey, TraceSink};
use softsku::workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;

const SEED: u64 = 21;

fn run_demo(seed: u64, workers: usize) -> CoordinatorReport {
    let (topology, chaos, plans) = demo_campaign(seed).unwrap();
    FleetCoordinator::new(CoordinatorConfig::fast_test())
        .with_workers(NonZeroUsize::new(workers).unwrap())
        .run(&topology, chaos, plans, seed)
        .unwrap()
}

/// A quiet service plan: candidate identical to the baseline and no
/// organic code churn, so every guardrail reaction in these tests is
/// attributable to injected chaos alone.
fn quiet_plan(service: Microservice, platform: PlatformKind, domain: FailureDomain) -> ServicePlan {
    let profile = service.profile(platform).unwrap();
    let baseline = profile.production_config.clone();
    let candidate = baseline.clone();
    let mut staged = StagedFleetConfig::fast_test();
    staged.replicas = 20;
    staged.window_insns = 6_000;
    staged.pushes_per_hour = 0.0;
    let name = service.name().to_lowercase();
    let fleet_seed = IdentitySeed::new(SEED)
        .field(&name)
        .field(&domain.to_string())
        .finish();
    let fleet = StagedFleet::new(profile, baseline, candidate.clone(), staged, fleet_seed).unwrap();
    ServicePlan {
        name,
        fleet,
        candidate,
        needs_reboot: false,
        domain,
    }
}

/// Chaos that only sends correlated code-push waves.
fn waves_only(rate_per_day: f64) -> ChaosConfig {
    ChaosConfig {
        push_wave_rate_per_day: rate_per_day,
        push_wave_erosion: 0.08,
        ..ChaosConfig::none()
    }
}

/// The demo campaign (4 services, 2 pools, all four fault families)
/// completes without panics, records every fault in the `chaos.*` ledger,
/// quarantines with exponential backoff, and is bit-identical between a
/// serial and an 8-worker run.
#[test]
fn demo_campaign_survives_chaos_bit_identically() {
    let serial = run_demo(SEED, 1);
    let wide = run_demo(SEED, 8);
    assert_eq!(
        format!("{serial:?}"),
        format!("{wide:?}"),
        "coordinator outcomes must not depend on worker count"
    );

    assert!(serial.converged(), "{}", serial.render());
    assert_eq!(serial.services.len(), 4);
    for (family, injected) in serial.faults.iter().enumerate() {
        assert!(*injected > 0, "fault family {family} never fired");
    }

    // Every injected fault is a `chaos.*` ledger entry — count them back
    // out of the ledger and match the injection counters exactly.
    let families = [
        LedgerKey::ChaosBrownout.name(),
        LedgerKey::ChaosPushWave.name(),
        LedgerKey::ChaosCanaryCrash.name(),
        LedgerKey::ChaosStall.name(),
    ];
    for (metric, injected) in families.iter().zip(serial.faults) {
        let logged: usize = serial
            .ledger
            .keys()
            .filter(|k| k.metric() == *metric)
            .map(|k| serial.ledger.len(k))
            .sum();
        assert_eq!(logged as u64, injected, "{metric} entries");
    }

    // Quarantine backs off exponentially: each successive entry for the
    // same service doubles the previous wait.
    let quarantined: Vec<&SeriesKey> = serial
        .ledger
        .keys()
        .filter(|k| k.metric() == LedgerKey::CoordinatorQuarantine.name())
        .collect();
    assert!(!quarantined.is_empty(), "campaign must quarantine someone");
    let mut saw_backoff_growth = false;
    for key in quarantined {
        let waits: Vec<f64> = serial
            .ledger
            .raw_points(key)
            .iter()
            .map(|&(_, backoff)| backoff)
            .collect();
        for pair in waits.windows(2) {
            assert_eq!(pair[1], pair[0] * 2.0, "backoff must double per strike");
            saw_backoff_growth = true;
        }
    }
    assert!(saw_backoff_growth, "need at least one repeated quarantine");
    assert!(
        serial.services.iter().any(|s| s.retries > 0),
        "a quarantined service must get a retry"
    );
}

/// A correlated code-push wave storm rolls back several same-pool services
/// inside the breaker window and trips the fleet-wide circuit breaker;
/// each trip's freeze pauses retries, so over a fixed horizon the guarded
/// fleet burns strictly fewer rollbacks into the storm than the same fleet
/// with the breaker disabled.
#[test]
fn correlated_push_waves_trip_the_breaker() {
    let topology = FleetTopology::paper_pools();
    let plans = || {
        vec![
            quiet_plan(
                Microservice::Feed1,
                PlatformKind::Skylake18,
                FailureDomain::new("skl18", "r0"),
            ),
            quiet_plan(
                Microservice::Ads1,
                PlatformKind::Skylake18,
                FailureDomain::new("skl18", "r0"),
            ),
            quiet_plan(
                Microservice::Cache2,
                PlatformKind::Skylake18,
                FailureDomain::new("skl18", "r1"),
            ),
        ]
    };
    // A persistent storm — every retry is doomed by the next wave — with
    // demotion pushed out of reach so the two runs differ only in whether
    // the breaker throttles the retry cadence over the fixed horizon.
    let chaos = waves_only(48.0);
    let mut guarded_cfg = CoordinatorConfig::fast_test();
    guarded_cfg.max_strikes = 12;
    guarded_cfg.quarantine_backoff_ticks = 4;
    guarded_cfg.breaker_freeze_ticks = 36;
    guarded_cfg.max_ticks = 240;
    let mut unguarded_cfg = guarded_cfg.clone();
    unguarded_cfg.breaker_rollbacks = usize::MAX;

    let guarded = FleetCoordinator::new(guarded_cfg)
        .with_workers(NonZeroUsize::new(2).unwrap())
        .run(&topology, chaos, plans(), SEED)
        .unwrap();
    assert!(
        guarded.breaker_trips >= 1,
        "correlated rollbacks must trip the breaker:\n{}",
        guarded.render()
    );
    assert_eq!(
        guarded.ledger.len(&SeriesKey::keyed(
            "fleet",
            LedgerKey::CoordinatorBreakerTrip
        )) as u64,
        guarded.breaker_trips
    );
    assert!(
        guarded.quarantines >= 1,
        "storm survivors must pass through quarantine"
    );

    let unguarded = FleetCoordinator::new(unguarded_cfg)
        .with_workers(NonZeroUsize::new(2).unwrap())
        .run(&topology, chaos, plans(), SEED)
        .unwrap();
    assert_eq!(unguarded.breaker_trips, 0);
    assert!(
        unguarded.rollbacks > guarded.rollbacks,
        "breaker off must burn more rollbacks: {} vs {} with it on",
        unguarded.rollbacks,
        guarded.rollbacks
    );
}

/// One early push wave rolls a service back once; quarantine-and-retry
/// redeploys it against current code and the rollout completes. The same
/// campaign with `max_strikes = 1` (quarantine effectively off) demotes
/// the service on that first strike instead.
#[test]
fn quarantine_retry_rescues_what_demotion_would_kill() {
    let topology = FleetTopology::paper_pools();
    let plans = || {
        vec![quiet_plan(
            Microservice::Web,
            PlatformKind::Skylake18,
            FailureDomain::new("skl18", "r0"),
        )]
    };
    let chaos = waves_only(6.0);
    let seed = 1;

    let patient = FleetCoordinator::new(CoordinatorConfig::fast_test())
        .run(&topology, chaos, plans(), seed)
        .unwrap();
    let s = &patient.services[0];
    assert!(s.rollbacks >= 1, "the wave must cause a strike:\n{s:?}");
    assert!(s.retries >= 1, "quarantine must grant a retry:\n{s:?}");
    assert!(
        s.deployed(),
        "the retry must complete the rollout:\n{}",
        patient.render()
    );

    let mut strict_cfg = CoordinatorConfig::fast_test();
    strict_cfg.max_strikes = 1;
    let strict = FleetCoordinator::new(strict_cfg)
        .run(&topology, chaos, plans(), seed)
        .unwrap();
    assert_eq!(
        strict.services[0].phase,
        ServicePhase::Demoted,
        "one-strike demotion must kill the same rollout quarantine saved"
    );
    assert_eq!(strict.services[0].retries, 0);
}

/// The per-tick canary budget paces exposure: a chaos-free rollout under a
/// one-replica-per-tick budget takes strictly more coordinator ticks than
/// the identical rollout with the budget unlimited.
#[test]
fn canary_budget_paces_the_ramp() {
    let topology = FleetTopology::paper_pools();
    let plans = || {
        vec![quiet_plan(
            Microservice::Web,
            PlatformKind::Skylake18,
            FailureDomain::new("skl18", "r1"),
        )]
    };

    let mut paced_cfg = CoordinatorConfig::fast_test();
    paced_cfg.budget.growth_per_tick = 1;
    let paced = FleetCoordinator::new(paced_cfg)
        .run(&topology, ChaosConfig::none(), plans(), SEED)
        .unwrap();

    let mut open_cfg = CoordinatorConfig::fast_test();
    open_cfg.budget = CanaryBudget::unlimited();
    let open = FleetCoordinator::new(open_cfg)
        .run(&topology, ChaosConfig::none(), plans(), SEED)
        .unwrap();

    assert!(paced.converged() && open.converged());
    assert!(paced.services[0].deployed() && open.services[0].deployed());
    assert!(
        paced.ticks > open.ticks,
        "budget pacing must lengthen the ramp: {} vs {} unmetered",
        paced.ticks,
        open.ticks
    );
}

/// FNV-1a over a string's bytes.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The demo campaign at `seed` under `cfg`, run once with a recording sink
/// and once untraced at `workers`. The two reports must render the same
/// `Debug`: tracing observes the campaign, it never steers it.
fn run_demo_traced(seed: u64, cfg: &CoordinatorConfig, workers: usize) -> TraceSink {
    let coordinator =
        FleetCoordinator::new(cfg.clone()).with_workers(NonZeroUsize::new(workers).unwrap());
    let (topology, chaos, plans) = demo_campaign(seed).unwrap();
    let mut sink = TraceSink::new();
    let traced = coordinator
        .run_traced(&topology, chaos, plans, seed, &mut sink)
        .unwrap();
    let (topology, chaos, plans) = demo_campaign(seed).unwrap();
    let untraced = coordinator.run(&topology, chaos, plans, seed).unwrap();
    assert_eq!(
        format!("{traced:?}"),
        format!("{untraced:?}"),
        "seed {seed}: tracing changed the report or ledger"
    );
    sink
}

/// The three traced campaigns the trace tests replay. Together they fire
/// every coordinator reaction and the quarantine spans: seed 21, seed 1
/// (every reaction but `exhausted`), and seed 1 with a 20-exposure budget
/// (adds `exhausted`).
fn traced_campaigns() -> [(u64, CoordinatorConfig); 3] {
    let mut starved = CoordinatorConfig::fast_test();
    starved.budget.total_exposures = 20;
    [
        (21, CoordinatorConfig::fast_test()),
        (1, CoordinatorConfig::fast_test()),
        (1, starved),
    ]
}

/// The coordinator's trace is pinned byte for byte (Chrome export and span
/// tree) at 1 and 8 workers, and each traced run reports exactly what the
/// untraced run does.
#[test]
fn coordinator_trace_is_pinned_and_tracing_changes_nothing() {
    let pinned = [
        (42, 0x9324_e510_765d_c212, 0x5f51_923c_12b1_3e16),
        (69, 0x04c8_7b83_0954_d328, 0x5977_e962_c62c_b271),
        (54, 0x5904_b718_6386_066f, 0x1628_38d8_15a6_864e),
    ];
    for ((seed, cfg), (spans, chrome, tree)) in traced_campaigns().into_iter().zip(pinned) {
        for workers in [1, 8] {
            let sink = run_demo_traced(seed, &cfg, workers);
            assert_eq!(
                (
                    sink.spans().len(),
                    fnv(&sink.chrome_trace().render()),
                    fnv(&sink.render_tree())
                ),
                (spans, chrome, tree),
                "seed {seed}, {workers} workers"
            );
        }
    }
}

/// Every `coordinator.event` leaf names a registered `coordinator.*` key
/// (prefix dropped), and every reaction key has exactly as many leaves as
/// ledger points summed over entities. Quarantine periods are spans of
/// their own category, not event leaves.
#[test]
fn coordinator_event_leaves_match_the_ledger() {
    let prefix = LedgerDomain::Coordinator.prefix();
    let reactions: Vec<LedgerKey> = LedgerKey::ALL
        .into_iter()
        .filter(|k| k.domain() == LedgerDomain::Coordinator)
        .filter(|k| {
            !matches!(
                k,
                LedgerKey::CoordinatorEvent | LedgerKey::CoordinatorQuarantine
            )
        })
        .collect();
    let mut fired = std::collections::BTreeSet::new();
    let mut quarantine_spans = 0;
    for (seed, cfg) in traced_campaigns() {
        let (topology, chaos, plans) = demo_campaign(seed).unwrap();
        let mut sink = TraceSink::new();
        let report = FleetCoordinator::new(cfg)
            .with_workers(NonZeroUsize::new(2).unwrap())
            .run_traced(&topology, chaos, plans, seed, &mut sink)
            .unwrap();
        let leaves: Vec<&str> = sink
            .spans()
            .iter()
            .filter(|s| sink.cat(s) == LedgerKey::CoordinatorEvent.name())
            .map(|s| sink.name(s))
            .collect();
        for leaf in &leaves {
            assert!(
                reactions
                    .iter()
                    .any(|k| k.name() == format!("{prefix}{leaf}")),
                "seed {seed}: leaf {leaf:?} names no coordinator reaction key"
            );
        }
        for key in &reactions {
            let points: usize = report
                .ledger
                .keys()
                .filter(|k| k.metric() == key.name())
                .map(|k| report.ledger.len(k))
                .sum();
            let short = &key.name()[prefix.len()..];
            let count = leaves.iter().filter(|&&l| l == short).count();
            assert_eq!(
                count, points,
                "seed {seed}: {short} leaves vs ledger points"
            );
            if count > 0 {
                fired.insert(short.to_string());
            }
        }
        quarantine_spans += sink
            .spans()
            .iter()
            .filter(|s| sink.cat(s) == LedgerKey::CoordinatorQuarantine.name())
            .count();
    }
    assert_eq!(fired.len(), reactions.len(), "reactions fired: {fired:?}");
    assert!(quarantine_spans > 0, "no quarantine span recorded");
}

/// The demo campaign's fleet noise streams are pinned directly: the
/// coordinator's report (and so perfbench's chaos digest) does not depend
/// on the fleet seeds, and the build's determinism test only compares
/// worker counts with each other. Each plan's fleet, a quarter staged,
/// ticks a fixed number of times; the digest covers every sample's QPS
/// and latency bits.
#[test]
fn demo_campaign_fleet_streams_are_pinned() {
    const TICKS: usize = 24;
    let (_, _, mut plans) = demo_campaign(SEED).unwrap();
    let mut bits = String::new();
    for plan in &mut plans {
        plan.fleet.stage_to(0.25);
        for _ in 0..TICKS {
            let s = plan.fleet.tick().unwrap();
            for v in [
                Some(s.baseline_qps),
                s.candidate_qps,
                Some(s.baseline_latency_s),
                s.candidate_latency_s,
            ] {
                bits.push_str(&format!("{:x},", v.map_or(u64::MAX, f64::to_bits)));
            }
        }
    }
    assert_eq!(fnv(&bits), 0xb712_9302_bc55_328e, "fleet digest moved");
}
