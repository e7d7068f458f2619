//! Fleet rollout coordinator: many services' staged rollouts at once,
//! robust under domain-correlated chaos.
//!
//! The paper's "@scale" campaigns (Sec. 6) run per-platform soft-SKU
//! rollouts across a heterogeneous fleet. [`FleetCoordinator`] is that
//! layer: it drives every service's [`StagedRollout`] concurrently on one
//! shared deterministic worker pool ([`usku::scheduler::run_tasks`]), with
//! the fleet-scale safety mechanisms a single-service state machine cannot
//! provide:
//!
//! * **Canary budgets** ([`CanaryBudget`]) — each service exposes at most
//!   `growth_per_tick` new replicas per tick and at most `total_exposures`
//!   across its lifetime; a service that spends its whole budget before
//!   reaching its stage target is terminally [`ServicePhase::Exhausted`]
//!   (no further exposure growth, ever).
//! * **Blast-radius cap** — fleet-wide ceiling on concurrently exposed
//!   candidate replicas, allocated in canonical service order.
//! * **Circuit breaker** — when `breaker_rollbacks` rollbacks land within
//!   `breaker_window_ticks`, every promotion and every exposure grow
//!   freezes for `breaker_freeze_ticks` (correlated failure is fleet-wide
//!   news, not a per-service incident).
//! * **Quarantine with exponential backoff** — a rolled-back service waits
//!   `quarantine_backoff_ticks × 2^(strikes−1)` ticks, then retries with a
//!   freshly deployed candidate (drift reset — re-tuned against current
//!   code); after `max_strikes` rollbacks it is permanently
//!   [`ServicePhase::Demoted`].
//! * **Graceful degradation** — when a pool goes dark mid-stage, its
//!   services revert every candidate replica to the baseline (holdback)
//!   configuration and pause observation until the pool recovers.
//!
//! Every injected fault and every coordinator reaction lands in a
//! [`Ods::chaos_ledger`] as `chaos.*` / `coordinator.*` entries and,
//! when a [`TraceSink`] is supplied, as spans on the `coordinator` track.
//!
//! **Determinism.** Chaos arrives from [`ChaosSchedule`] (pure in
//! `(topology, config, seed)`); each service's fleet draws from its own
//! private streams; fleets tick in parallel behind disjoint mutexes but
//! every decision — staging, promotion, breaker, quarantine — happens on
//! the orchestration thread in canonical plan order. The whole
//! [`CoordinatorReport`] is therefore bit-identical across worker counts,
//! pinned by `tests/chaos_rollout.rs`.

use crate::error::RolloutError;
use crate::rollout::{RolloutConfig, StagedRollout, StepDecision};
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::{
    ChaosConfig, ChaosEvent, ChaosSchedule, FailureDomain, FleetTopology, StagedFleet,
};
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::{LedgerKey, Ods, SeriesKey};
use std::num::NonZeroUsize;
use usku::scheduler::run_tasks;

/// Per-service exposure budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanaryBudget {
    /// Maximum new candidate replicas a service may expose per tick.
    pub growth_per_tick: usize,
    /// Total replica exposures a service may spend across its lifetime
    /// (including post-quarantine retries). Spending it all before
    /// reaching the stage target is terminal.
    pub total_exposures: usize,
}

impl CanaryBudget {
    /// Effectively unmetered (both limits at `usize::MAX`).
    pub fn unlimited() -> Self {
        CanaryBudget {
            growth_per_tick: usize::MAX,
            total_exposures: usize::MAX,
        }
    }
}

/// Coordinator parameters.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Guardrail configuration each service's [`StagedRollout`] runs with.
    pub rollout: RolloutConfig,
    /// Per-service exposure budget.
    pub budget: CanaryBudget,
    /// Fleet-wide cap on concurrently exposed candidate replicas.
    pub blast_radius: usize,
    /// Rollbacks within [`CoordinatorConfig::breaker_window_ticks`] that
    /// trip the circuit breaker.
    pub breaker_rollbacks: usize,
    /// Sliding window, in coordinator ticks, the breaker counts rollbacks
    /// over.
    pub breaker_window_ticks: u64,
    /// Ticks every promotion and exposure grow stays frozen after a trip.
    pub breaker_freeze_ticks: u64,
    /// Base quarantine backoff, in ticks; doubles with each strike.
    pub quarantine_backoff_ticks: u64,
    /// Rollbacks after which a service is permanently demoted.
    pub max_strikes: usize,
    /// Hard horizon, in coordinator ticks, in case chaos never relents.
    pub max_ticks: u64,
}

impl CoordinatorConfig {
    /// Small, fast parameters for tests and smoke runs: short stages, a
    /// 4-replica-per-tick budget, and a breaker wired for two rollbacks in
    /// a two-stage window.
    pub fn fast_test() -> Self {
        let mut rollout = RolloutConfig::fast_test();
        rollout.ticks_per_stage = 12;
        rollout.mad_window = 8;
        // NB: 12-tick stages deliberately starve the tail guard
        // (`TailGuard::fast_test` wants 16 samples): a p99 estimated from
        // a dozen heavy-tailed draws is a sample max, and gating
        // promotions on the ratio of two sample maxes rolls back healthy
        // services. Campaigns that want the stepwise p99 verdict must run
        // stages at least `min_samples` ticks long.
        CoordinatorConfig {
            rollout,
            budget: CanaryBudget {
                growth_per_tick: 4,
                total_exposures: 1_000,
            },
            blast_radius: 200,
            breaker_rollbacks: 2,
            breaker_window_ticks: 24,
            breaker_freeze_ticks: 12,
            quarantine_backoff_ticks: 12,
            max_strikes: 3,
            max_ticks: 480,
        }
    }
}

/// One service's rollout order: a prebuilt staged fleet, the candidate
/// configuration retries redeploy, and the failure domain the replicas
/// live in.
#[derive(Debug)]
pub struct ServicePlan {
    /// Ledger/trace entity name (e.g. `web`).
    pub name: String,
    /// The service's replica fleet, constructed with the baseline and
    /// candidate configurations.
    pub fleet: StagedFleet,
    /// The candidate configuration, redeployed (drift reset) on each
    /// post-quarantine retry.
    pub candidate: ServerConfig,
    /// Whether deploying the candidate costs a reboot.
    pub needs_reboot: bool,
    /// The failure domain the fleet's replicas live in. Must exist in the
    /// topology the coordinator runs against.
    pub domain: FailureDomain,
}

/// Where one service's rollout stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicePhase {
    /// Canary active: growing toward the stage target or observing.
    Ramping,
    /// Domain dark: candidates reverted to the baseline (holdback)
    /// configuration, observation paused until the pool recovers.
    Degraded,
    /// Rolled back and waiting out its exponential backoff.
    Quarantined,
    /// Every stage promoted; the candidate serves the fleet.
    Deployed,
    /// `max_strikes` rollbacks; permanently demoted to the baseline.
    Demoted,
    /// Canary budget spent before the stage target was reached; exposure
    /// is frozen forever.
    Exhausted,
}

impl ServicePhase {
    /// Whether the coordinator is done with this service.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            ServicePhase::Deployed | ServicePhase::Demoted | ServicePhase::Exhausted
        )
    }
}

/// One service's final standing in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// The service's plan name.
    pub name: String,
    /// Its failure domain, rendered `pool/rack`.
    pub domain: String,
    /// Terminal (or horizon-truncated) phase.
    pub phase: ServicePhase,
    /// Candidate replicas exposed at the end.
    pub candidate_replicas: usize,
    /// Total fleet replicas.
    pub replicas: usize,
    /// Guardrail rollbacks this service suffered.
    pub rollbacks: u64,
    /// Post-quarantine retries it was granted.
    pub retries: u64,
    /// Strikes accumulated (each rollback is one).
    pub strikes: usize,
    /// Canary stages promoted across all attempts.
    pub promoted_stages: usize,
}

impl ServiceSummary {
    /// Whether the service ended fully deployed.
    pub fn deployed(&self) -> bool {
        self.phase == ServicePhase::Deployed
    }
}

/// Everything one coordinated campaign produced. Contains no wall-clock
/// fields: the whole report is part of the deterministic view.
#[derive(Debug)]
pub struct CoordinatorReport {
    /// Per-service outcomes, in plan order.
    pub services: Vec<ServiceSummary>,
    /// Coordinator ticks executed.
    pub ticks: u64,
    /// Simulated seconds the campaign covered.
    pub sim_time_s: f64,
    /// Chaos faults injected, per family: brownouts, push waves, canary
    /// crashes, stage stalls.
    pub faults: [u64; 4],
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Guardrail rollbacks across the fleet.
    pub rollbacks: u64,
    /// Quarantine entries across the fleet.
    pub quarantines: u64,
    /// Permanent demotions.
    pub demotions: u64,
    /// Highest concurrently exposed candidate-replica count observed.
    pub max_blast: usize,
    /// Completed recovery episodes: rollback → redeployed, degrade →
    /// recovered, or brownout injected → brownout lifted (one episode per
    /// pool per contiguous browned-out interval, overlapping brownouts
    /// merged).
    pub recoveries: u64,
    /// Mean time to recover over those episodes, simulated seconds (0.0
    /// when none completed).
    pub mttr_s: f64,
    /// The `chaos.*` / `coordinator.*` ledger, tiered retention.
    pub ledger: Ods,
}

impl CoordinatorReport {
    /// Total faults injected across every family.
    pub fn faults_injected(&self) -> u64 {
        self.faults.iter().sum()
    }

    /// Whether every service ended in a terminal phase (none truncated by
    /// the tick horizon mid-flight).
    pub fn converged(&self) -> bool {
        self.services.iter().all(|s| s.phase.terminal())
    }

    /// Renders a human-readable campaign summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "coordinated rollout — {} services, {} ticks ({:.1} sim-h)\n\
             faults: {} brownouts, {} push waves, {} canary crashes, {} stalls\n\
             breaker trips {}, rollbacks {}, quarantines {}, demotions {}, max blast {}\n\
             recoveries {} (MTTR {:.0} sim-s)\n",
            self.services.len(),
            self.ticks,
            self.sim_time_s / 3600.0,
            self.faults[0],
            self.faults[1],
            self.faults[2],
            self.faults[3],
            self.breaker_trips,
            self.rollbacks,
            self.quarantines,
            self.demotions,
            self.max_blast,
            self.recoveries,
            self.mttr_s,
        );
        for s in &self.services {
            out.push_str(&format!(
                "  {:<8} {:<10} {:>3}/{:<3} replicas  {:?} ({} rollbacks, {} retries, {} stages)\n",
                s.name,
                s.domain,
                s.candidate_replicas,
                s.replicas,
                s.phase,
                s.rollbacks,
                s.retries,
                s.promoted_stages
            ));
        }
        out
    }
}

/// One service's live state inside the coordinator loop.
#[derive(Debug)]
struct Runtime {
    name: String,
    fleet: StagedFleet,
    candidate: ServerConfig,
    needs_reboot: bool,
    domain: usize,
    pool: usize,
    domain_name: String,
    rollout: StagedRollout,
    phase: ServicePhase,
    /// Candidate-replica target of the stage under observation.
    target: usize,
    exposures_left: usize,
    strikes: usize,
    /// A clean stage is waiting for promotion (held by a stall or the
    /// breaker until clear).
    pending_promote: bool,
    /// Exposure to restore when the dark pool recovers.
    degraded_from: usize,
    quarantine_until: u64,
    rollbacks: u64,
    retries: u64,
    promoted: usize,
    /// Sim time the open recovery episode started at, if any.
    recovery_start: Option<f64>,
}

impl Runtime {
    fn stage_target(&self, fraction: f64) -> usize {
        let replicas = self.fleet.replicas();
        let want = (fraction.clamp(0.0, 1.0) * replicas as f64).ceil() as usize;
        want.min(replicas - self.fleet.holdback())
    }
}

/// Drives many services' staged rollouts concurrently under a chaos
/// campaign. See the module docs for the mechanism inventory.
#[derive(Debug, Clone)]
pub struct FleetCoordinator {
    config: CoordinatorConfig,
    workers: NonZeroUsize,
}

impl FleetCoordinator {
    /// Creates a coordinator using every available hardware thread.
    pub fn new(config: CoordinatorConfig) -> Self {
        FleetCoordinator {
            config,
            workers: usku::scheduler::default_workers(),
        }
    }

    /// Overrides the worker-pool size (wall-clock only; the report is
    /// bit-identical for any value).
    pub fn with_workers(mut self, workers: NonZeroUsize) -> Self {
        self.workers = workers;
        self
    }

    /// Runs the campaign: `plans` under `chaos` against `topology`, seeded
    /// by `seed`.
    ///
    /// # Errors
    ///
    /// Fleet/engine, statistics, and ledger errors.
    pub fn run(
        &self,
        topology: &FleetTopology,
        chaos: ChaosConfig,
        plans: Vec<ServicePlan>,
        seed: u64,
    ) -> Result<CoordinatorReport, RolloutError> {
        self.run_traced(topology, chaos, plans, seed, &mut TraceSink::disabled())
    }

    /// [`FleetCoordinator::run`] with observability: a root `coordinator`
    /// span on a `coordinator` track (time axis = the campaign's simulated
    /// clock), an instant `chaos.event` leaf per injected fault, an
    /// instant `coordinator.event` leaf per reaction (rollback, breaker
    /// trip/clear, quarantine, retry, demote, degrade, recover, promote,
    /// deploy), and an open span across every quarantine period.
    ///
    /// The report and ledger are bit-identical with tracing on or off.
    ///
    /// # Errors
    ///
    /// Fleet/engine, statistics, and ledger errors.
    pub fn run_traced(
        &self,
        topology: &FleetTopology,
        chaos: ChaosConfig,
        plans: Vec<ServicePlan>,
        seed: u64,
        sink: &mut TraceSink,
    ) -> Result<CoordinatorReport, RolloutError> {
        let cfg = &self.config;
        let mut ledger = Ods::chaos_ledger();
        let mut schedule = ChaosSchedule::new(topology, chaos, seed);
        let track = sink.track("coordinator");
        sink.set_track(track);
        let root = sink.open("coordinator", "coordinated rollout", 0.0);
        sink.attr(root, "services", AttrValue::Int(plans.len() as i64));
        sink.attr(root, "seed", AttrValue::Str(format!("{seed:#018x}")));

        // Build runtimes in plan order — the canonical order every merge
        // and every blast-radius allocation walks.
        let tick_s = plans
            .first()
            .map(|p| p.fleet.config().tick_s)
            .unwrap_or(600.0);
        let mut runtimes: Vec<std::sync::Mutex<Runtime>> = Vec::with_capacity(plans.len());
        for plan in plans {
            let domain = topology
                .domain_index(&plan.domain)
                .ok_or_else(|| plan_domain_error(&plan))?;
            // domain_index succeeded above, so the pool lookup cannot fail.
            let pool = topology
                .pool_of_domain(domain)
                .expect("indexed domains have pools");
            let mut fleet = plan.fleet;
            fleet.set_domain(plan.domain.clone());
            let mut rollout = StagedRollout::new(cfg.rollout.clone());
            let first = rollout.begin().unwrap_or(0.0);
            let mut rt = Runtime {
                name: plan.name,
                fleet,
                candidate: plan.candidate,
                needs_reboot: plan.needs_reboot,
                domain,
                pool,
                domain_name: plan.domain.to_string(),
                rollout,
                phase: ServicePhase::Ramping,
                target: 0,
                exposures_left: cfg.budget.total_exposures,
                strikes: 0,
                pending_promote: false,
                degraded_from: 0,
                quarantine_until: 0,
                rollbacks: 0,
                retries: 0,
                promoted: 0,
                recovery_start: None,
            };
            rt.target = rt.stage_target(first);
            runtimes.push(std::sync::Mutex::new(rt));
        }

        let mut tick: u64 = 0;
        let mut time_s = 0.0;
        let mut faults = [0u64; 4];
        let mut breaker_trips = 0u64;
        let mut quarantines = 0u64;
        let mut demotions = 0u64;
        let mut max_blast = 0usize;
        let mut recoveries: Vec<f64> = Vec::new();
        // Open brownout episode per pool: (injected_at_s, lifts_at_s). A
        // brownout landing on an already-browned pool extends the open
        // episode — the pool recovers once, when the last overlapping
        // brownout lifts — mirroring how `ChaosSchedule::load_multiplier`
        // keys off the maximum `until` per pool.
        let mut brownout_open: Vec<Option<(f64, f64)>> = vec![None; topology.pool_count()];
        let mut rollback_ticks: Vec<u64> = Vec::new();
        let mut frozen_until: u64 = 0;
        let mut frozen = false;

        while tick < cfg.max_ticks {
            tick += 1;
            let t = time_s + tick_s;

            // 1. Chaos injection, canonical family order. Every fault is a
            // ledger entry (entity = affected pool or domain) and a span.
            for event in schedule.tick(t) {
                let idx = match event {
                    ChaosEvent::Brownout { .. } => 0,
                    ChaosEvent::PushWave { .. } => 1,
                    ChaosEvent::CanaryCrash { .. } => 2,
                    ChaosEvent::StageStall { .. } => 3,
                };
                faults[idx] += 1;
                let scope = event.scope(topology);
                ledger.append(
                    &SeriesKey::new(&scope, event.metric()),
                    event.at_s(),
                    event.magnitude(),
                )?;
                let leaf = sink.leaf(
                    LedgerKey::ChaosEvent.name(),
                    event.metric(),
                    event.at_s(),
                    0.0,
                );
                sink.attr(leaf, "scope", AttrValue::Str(scope));
                sink.attr(leaf, "magnitude", AttrValue::F64(event.magnitude()));
                match event {
                    ChaosEvent::PushWave { pool, erosion, .. } => {
                        for m in &mut runtimes {
                            let rt = m.get_mut().expect(NO_POISON);
                            if rt.pool == pool {
                                rt.fleet.apply_push_wave(erosion);
                            }
                        }
                    }
                    ChaosEvent::CanaryCrash {
                        domain,
                        until_s,
                        replicas,
                        ..
                    } => {
                        for m in &mut runtimes {
                            let rt = m.get_mut().expect(NO_POISON);
                            if rt.domain == domain {
                                rt.fleet.crash_candidates(replicas, until_s);
                            }
                        }
                    }
                    // Brownouts act through the per-tick load multiplier
                    // below; their recovery episodes are tracked here so a
                    // load-only brownout — which never forces a service
                    // into `Degraded` — still lands in the MTTR books when
                    // it lifts.
                    ChaosEvent::Brownout {
                        pool,
                        at_s,
                        until_s,
                        ..
                    } => match brownout_open[pool] {
                        Some((start, lift)) if at_s < lift => {
                            brownout_open[pool] = Some((start, lift.max(until_s)));
                        }
                        Some((start, lift)) => {
                            // The previous episode lifted earlier this tick,
                            // before this new brownout began; close it now so
                            // its recovery is not overwritten.
                            record_brownout_recovery(
                                &mut ledger,
                                sink,
                                &mut recoveries,
                                topology.pool_name(pool).unwrap_or("?"),
                                start,
                                lift,
                            )?;
                            brownout_open[pool] = Some((at_s, until_s));
                        }
                        None => brownout_open[pool] = Some((at_s, until_s)),
                    },
                    // Stalls act through the promotion gate below.
                    ChaosEvent::StageStall { .. } => {}
                }
            }

            // Close brownout episodes that lifted by now: each one is a
            // completed recovery (MTTR = injection → lift). Episodes still
            // open when the campaign ends never count — the fleet did not
            // recover inside the observed window.
            for (pool, slot) in brownout_open.iter_mut().enumerate() {
                if let Some((start, lift)) = *slot {
                    if t >= lift {
                        record_brownout_recovery(
                            &mut ledger,
                            sink,
                            &mut recoveries,
                            topology.pool_name(pool).unwrap_or("?"),
                            start,
                            lift,
                        )?;
                        *slot = None;
                    }
                }
            }

            // Breaker bookkeeping: clear when the freeze expires.
            if frozen && tick >= frozen_until {
                frozen = false;
                ledger.append(
                    &SeriesKey::keyed("fleet", LedgerKey::CoordinatorBreakerClear),
                    t,
                    1.0,
                )?;
                sink.leaf(LedgerKey::CoordinatorEvent.name(), "breaker_clear", t, 0.0);
            }

            // 2. Pre-tick decisions in canonical order: load multipliers,
            // dark-pool degradation, quarantine expiry, budget-metered
            // exposure growth under the blast-radius cap.
            let mut blast: usize = runtimes
                .iter_mut()
                .map(|m| m.get_mut().expect(NO_POISON).fleet.candidate_replicas())
                .sum();
            for m in &mut runtimes {
                let rt = m.get_mut().expect(NO_POISON);
                rt.fleet
                    .set_external_load(schedule.load_multiplier(rt.pool, t));

                let dark = schedule.pool_dark(rt.pool, t);
                match rt.phase {
                    ServicePhase::Ramping if dark => {
                        rt.degraded_from = rt.fleet.candidate_replicas();
                        blast -= rt.degraded_from;
                        rt.fleet.stage_replicas(0);
                        rt.phase = ServicePhase::Degraded;
                        if rt.recovery_start.is_none() {
                            rt.recovery_start = Some(t);
                        }
                        ledger.append(
                            &SeriesKey::keyed(&rt.name, LedgerKey::CoordinatorDegrade),
                            t,
                            rt.degraded_from as f64,
                        )?;
                        let leaf = sink.leaf(LedgerKey::CoordinatorEvent.name(), "degrade", t, 0.0);
                        sink.attr(leaf, "service", AttrValue::Str(rt.name.clone()));
                        sink.attr(leaf, "domain", AttrValue::Str(rt.domain_name.clone()));
                    }
                    ServicePhase::Degraded if !dark => {
                        // Restoring prior exposure is not new exposure —
                        // the budget was already charged for it.
                        let restored = rt.fleet.stage_replicas(rt.degraded_from);
                        blast += restored;
                        rt.phase = ServicePhase::Ramping;
                        if let Some(start) = rt.recovery_start.take() {
                            recoveries.push(t - start);
                        }
                        ledger.append(
                            &SeriesKey::keyed(&rt.name, LedgerKey::CoordinatorRecover),
                            t,
                            restored as f64,
                        )?;
                        let leaf = sink.leaf(LedgerKey::CoordinatorEvent.name(), "recover", t, 0.0);
                        sink.attr(leaf, "service", AttrValue::Str(rt.name.clone()));
                    }
                    ServicePhase::Quarantined if tick >= rt.quarantine_until && !frozen => {
                        // Retry: redeploy the candidate against current
                        // code (drift reset) and restart the canary walk.
                        rt.fleet
                            .deploy_candidate(rt.candidate.clone(), rt.needs_reboot)?;
                        rt.rollout = StagedRollout::new(cfg.rollout.clone());
                        let first = rt.rollout.begin().unwrap_or(0.0);
                        rt.target = rt.stage_target(first);
                        rt.phase = ServicePhase::Ramping;
                        rt.pending_promote = false;
                        rt.retries += 1;
                        ledger.append(
                            &SeriesKey::keyed(&rt.name, LedgerKey::CoordinatorRetry),
                            t,
                            1.0,
                        )?;
                        let leaf = sink.leaf(LedgerKey::CoordinatorEvent.name(), "retry", t, 0.0);
                        sink.attr(leaf, "service", AttrValue::Str(rt.name.clone()));
                        sink.attr(leaf, "strikes", AttrValue::Int(rt.strikes as i64));
                    }
                    _ => {}
                }

                if rt.phase == ServicePhase::Ramping && !frozen {
                    let current = rt.fleet.candidate_replicas();
                    if current < rt.target {
                        let headroom = cfg.blast_radius.saturating_sub(blast);
                        let grow = (rt.target - current)
                            .min(cfg.budget.growth_per_tick)
                            .min(rt.exposures_left)
                            .min(headroom);
                        if grow > 0 {
                            let staged = rt.fleet.stage_replicas(current + grow);
                            blast += staged - current;
                            rt.exposures_left -= staged - current;
                        }
                        if rt.exposures_left == 0 && rt.fleet.candidate_replicas() < rt.target {
                            rt.phase = ServicePhase::Exhausted;
                            rt.pending_promote = false;
                            ledger.append(
                                &SeriesKey::keyed(&rt.name, LedgerKey::CoordinatorExhausted),
                                t,
                                rt.fleet.candidate_replicas() as f64,
                            )?;
                            let leaf =
                                sink.leaf(LedgerKey::CoordinatorEvent.name(), "exhausted", t, 0.0);
                            sink.attr(leaf, "service", AttrValue::Str(rt.name.clone()));
                        }
                    }
                }
            }
            max_blast = max_blast.max(blast);

            // 3. Parallel fleet ticks on the shared deterministic pool.
            // Each worker locks a disjoint runtime; samples come back in
            // plan order regardless of scheduling.
            let samples = run_tasks(&runtimes, self.workers.get(), |m| {
                // Workers touch disjoint indices; poisoning requires a
                // prior panic.
                // detlint::allow(lock_discipline): each worker locks a disjoint slot; the guard must span the tick
                let rt = &mut *m.lock().expect(NO_POISON);
                rt.fleet.tick().map_err(usku::UskuError::from)
            })
            .map_err(RolloutError::from)?;
            time_s = t;

            // 4. Merge in canonical order: guardrail stepping, promotion
            // gating, rollback → breaker/quarantine/demotion.
            for (m, sample) in runtimes.iter_mut().zip(&samples) {
                let rt = m.get_mut().expect(NO_POISON);
                if rt.phase != ServicePhase::Ramping {
                    continue;
                }
                // The stage clock only runs at full stage exposure: a ramp
                // still throttled by the canary budget or the blast-radius
                // cap has not yet *started* its observation window, so a
                // capped fleet stalls mid-ramp instead of promoting on a
                // partial canary group.
                let staged = rt.fleet.candidate_replicas();
                if !rt.pending_promote && staged >= rt.target {
                    match rt.rollout.step(sample, staged)? {
                        StepDecision::Observing => {}
                        StepDecision::StageClean { report, .. } => {
                            // Clean stages ledger their guarded p99 margin
                            // too, so `skuctl slo` charts the headroom a
                            // promotion had, not only the breaches.
                            if report.baseline_p99_s > 0.0 && report.candidate_p99_s > 0.0 {
                                ledger.append(
                                    &SeriesKey::keyed(&rt.name, LedgerKey::SloGuardP99),
                                    t,
                                    report.candidate_p99_s / report.baseline_p99_s - 1.0,
                                )?;
                            }
                            rt.pending_promote = true;
                        }
                        StepDecision::RolledBack { stage, report } => {
                            rt.fleet.rollback();
                            rt.rollbacks += 1;
                            rt.strikes += 1;
                            if rt.recovery_start.is_none() {
                                rt.recovery_start = Some(t);
                            }
                            rollback_ticks.push(tick);
                            ledger.append(
                                &SeriesKey::keyed(&rt.name, LedgerKey::CoordinatorRollback),
                                t,
                                stage as f64,
                            )?;
                            if report.baseline_p99_s > 0.0 && report.candidate_p99_s > 0.0 {
                                ledger.append(
                                    &SeriesKey::keyed(&rt.name, LedgerKey::SloGuardP99),
                                    t,
                                    report.candidate_p99_s / report.baseline_p99_s - 1.0,
                                )?;
                            }
                            let leaf =
                                sink.leaf(LedgerKey::CoordinatorEvent.name(), "rollback", t, 0.0);
                            sink.attr(leaf, "service", AttrValue::Str(rt.name.clone()));
                            sink.attr(leaf, "stage", AttrValue::Int(stage as i64));
                            sink.attr(leaf, "relative_diff", AttrValue::F64(report.relative_diff));
                            if let Some(v) = report.violation {
                                sink.attr(leaf, "violation", AttrValue::Str(format!("{v:?}")));
                            }
                            if rt.strikes >= cfg.max_strikes {
                                rt.phase = ServicePhase::Demoted;
                                rt.recovery_start = None;
                                demotions += 1;
                                ledger.append(
                                    &SeriesKey::keyed(&rt.name, LedgerKey::CoordinatorDemote),
                                    t,
                                    rt.strikes as f64,
                                )?;
                                let leaf =
                                    sink.leaf(LedgerKey::CoordinatorEvent.name(), "demote", t, 0.0);
                                sink.attr(leaf, "service", AttrValue::Str(rt.name.clone()));
                            } else {
                                let backoff =
                                    cfg.quarantine_backoff_ticks << (rt.strikes as u64 - 1);
                                rt.quarantine_until = tick + backoff;
                                rt.phase = ServicePhase::Quarantined;
                                quarantines += 1;
                                ledger.append(
                                    &SeriesKey::keyed(&rt.name, LedgerKey::CoordinatorQuarantine),
                                    t,
                                    backoff as f64,
                                )?;
                                let span = sink.leaf(
                                    LedgerKey::CoordinatorQuarantine.name(),
                                    &format!("quarantine {}", rt.name),
                                    t,
                                    backoff as f64 * tick_s,
                                );
                                sink.attr(span, "service", AttrValue::Str(rt.name.clone()));
                                sink.attr(span, "backoff_ticks", AttrValue::Int(backoff as i64));
                            }
                            continue;
                        }
                    }
                }
                if rt.pending_promote && !frozen && !schedule.stalled(rt.domain, t) {
                    rt.pending_promote = false;
                    match rt.rollout.promote() {
                        Some(fraction) => {
                            rt.target = rt.stage_target(fraction);
                            rt.promoted += 1;
                            ledger.append(
                                &SeriesKey::keyed(&rt.name, LedgerKey::CoordinatorPromote),
                                t,
                                fraction,
                            )?;
                            let leaf =
                                sink.leaf(LedgerKey::CoordinatorEvent.name(), "promote", t, 0.0);
                            sink.attr(leaf, "service", AttrValue::Str(rt.name.clone()));
                            sink.attr(leaf, "fraction", AttrValue::F64(fraction));
                        }
                        None => {
                            rt.promoted += 1;
                            rt.phase = ServicePhase::Deployed;
                            if let Some(start) = rt.recovery_start.take() {
                                recoveries.push(t - start);
                            }
                            ledger.append(
                                &SeriesKey::keyed(&rt.name, LedgerKey::CoordinatorDeployed),
                                t,
                                1.0,
                            )?;
                            let leaf =
                                sink.leaf(LedgerKey::CoordinatorEvent.name(), "deployed", t, 0.0);
                            sink.attr(leaf, "service", AttrValue::Str(rt.name.clone()));
                        }
                    }
                }
            }

            // 5. Circuit breaker: N rollbacks inside the sliding window
            // freeze the whole fleet's promotions and growth.
            rollback_ticks.retain(|&rb| tick - rb < cfg.breaker_window_ticks);
            if !frozen && rollback_ticks.len() >= cfg.breaker_rollbacks {
                frozen = true;
                frozen_until = tick + cfg.breaker_freeze_ticks;
                breaker_trips += 1;
                ledger.append(
                    &SeriesKey::keyed("fleet", LedgerKey::CoordinatorBreakerTrip),
                    t,
                    rollback_ticks.len() as f64,
                )?;
                let leaf = sink.leaf(LedgerKey::CoordinatorEvent.name(), "breaker_trip", t, 0.0);
                sink.attr(
                    leaf,
                    "rollbacks_in_window",
                    AttrValue::Int(rollback_ticks.len() as i64),
                );
                rollback_ticks.clear();
            }

            if runtimes
                .iter_mut()
                .all(|m| m.get_mut().expect(NO_POISON).phase.terminal())
            {
                break;
            }
        }

        let mut services = Vec::with_capacity(runtimes.len());
        let mut rollbacks = 0u64;
        for m in runtimes {
            let rt = m.into_inner().expect(NO_POISON);
            rollbacks += rt.rollbacks;
            services.push(ServiceSummary {
                name: rt.name,
                domain: rt.domain_name,
                phase: rt.phase,
                candidate_replicas: rt.fleet.candidate_replicas(),
                replicas: rt.fleet.replicas(),
                rollbacks: rt.rollbacks,
                retries: rt.retries,
                strikes: rt.strikes,
                promoted_stages: rt.promoted,
            });
        }
        let mttr_s = if recoveries.is_empty() {
            0.0
        } else {
            recoveries.iter().sum::<f64>() / recoveries.len() as f64
        };
        let report = CoordinatorReport {
            services,
            ticks: tick,
            sim_time_s: time_s,
            faults,
            breaker_trips,
            rollbacks,
            quarantines,
            demotions,
            max_blast,
            recoveries: recoveries.len() as u64,
            mttr_s,
            ledger,
        };
        sink.attr(root, "converged", AttrValue::Bool(report.converged()));
        sink.close(root, time_s);
        Ok(report)
    }
}

const NO_POISON: &str = "no worker panics hold a runtime lock";

/// Books one completed brownout-recovery episode: the MTTR sample, a
/// `coordinator.brownout_recover` ledger entry on the pool's scope, and a
/// trace leaf. `lift` is when the pool came back; `start` when the fault
/// was injected.
fn record_brownout_recovery(
    ledger: &mut Ods,
    sink: &mut TraceSink,
    recoveries: &mut Vec<f64>,
    pool_name: &str,
    start: f64,
    lift: f64,
) -> Result<(), RolloutError> {
    let mttr = lift - start;
    recoveries.push(mttr);
    ledger.append(
        &SeriesKey::keyed(pool_name, LedgerKey::CoordinatorBrownoutRecover),
        lift,
        mttr,
    )?;
    let leaf = sink.leaf(
        LedgerKey::CoordinatorEvent.name(),
        "brownout_recover",
        lift,
        0.0,
    );
    sink.attr(leaf, "pool", AttrValue::Str(pool_name.to_string()));
    sink.attr(leaf, "mttr_s", AttrValue::F64(mttr));
    Ok(())
}

fn plan_domain_error(plan: &ServicePlan) -> RolloutError {
    RolloutError::Workload(softsku_workloads::WorkloadError::UnsupportedPlatform {
        service: "coordinator",
        platform: format!("unknown failure domain {}", plan.domain),
    })
}

/// The shared demo campaign `skuctl chaos`, `bench chaos`, and the E2E
/// suite replay: four services across the paper-shaped two-pool topology
/// ([`FleetTopology::paper_pools`]), candidates identical to their
/// baselines (so every guardrail trip is attributable to injected chaos,
/// not organic tuning loss), under [`ChaosConfig::campaign`].
///
/// Returns the topology, chaos configuration, and plans; run them with a
/// [`FleetCoordinator`].
///
/// # Errors
///
/// Workload-resolution and fleet-construction errors.
pub fn demo_campaign(
    seed: u64,
) -> Result<(FleetTopology, ChaosConfig, Vec<ServicePlan>), RolloutError> {
    use softsku_cluster::StagedFleetConfig;
    use softsku_telemetry::streams::IdentitySeed;
    use softsku_workloads::{Microservice, PlatformKind};

    let topology = FleetTopology::paper_pools();
    let targets = [
        (Microservice::Web, PlatformKind::Broadwell16, "bdw16", "r0"),
        (Microservice::Feed1, PlatformKind::Skylake18, "skl18", "r0"),
        (Microservice::Ads1, PlatformKind::Skylake18, "skl18", "r1"),
        // Cache2 shares Feed1's rack: rack faults hit both at once.
        (Microservice::Cache2, PlatformKind::Skylake18, "skl18", "r0"),
    ];
    let mut staged = StagedFleetConfig::fast_test();
    staged.replicas = 20;
    staged.window_insns = 6_000;
    staged.pushes_per_hour = 0.5;
    staged.push_magnitude = 0.005;
    staged.drift_per_push = 0.002;

    let mut plans = Vec::with_capacity(targets.len());
    for (service, platform, pool, rack) in targets {
        let profile = service.profile(platform)?;
        let baseline = profile.production_config.clone();
        let candidate = baseline.clone();
        let domain = FailureDomain::new(pool, rack);
        let fleet_seed = IdentitySeed::new(seed)
            .field(service.name())
            .field("coordinator-fleet")
            .field(&domain.to_string())
            .finish();
        let fleet = StagedFleet::new(profile, baseline, candidate.clone(), staged, fleet_seed)?;
        plans.push(ServicePlan {
            name: service.name().to_lowercase(),
            fleet,
            candidate,
            needs_reboot: false,
            domain,
        });
    }
    Ok((topology, ChaosConfig::campaign(), plans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_cluster::StagedFleetConfig;
    use softsku_telemetry::streams::IdentitySeed;
    use softsku_workloads::{Microservice, PlatformKind};

    fn quiet_plan(name: &str, domain: FailureDomain, seed: u64) -> ServicePlan {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let baseline = profile.production_config.clone();
        let candidate = baseline.clone();
        let mut staged = StagedFleetConfig::fast_test();
        staged.replicas = 20;
        staged.window_insns = 6_000;
        let fleet_seed = IdentitySeed::new(seed).field(name).finish();
        let fleet =
            StagedFleet::new(profile, baseline, candidate.clone(), staged, fleet_seed).unwrap();
        ServicePlan {
            name: name.to_string(),
            fleet,
            candidate,
            needs_reboot: false,
            domain,
        }
    }

    #[test]
    fn chaos_free_campaign_deploys_every_service() {
        let topology = FleetTopology::paper_pools();
        let plans = vec![
            quiet_plan("a", FailureDomain::new("bdw16", "r0"), 3),
            quiet_plan("b", FailureDomain::new("skl18", "r0"), 3),
            quiet_plan("c", FailureDomain::new("skl18", "r1"), 3),
        ];
        let report = FleetCoordinator::new(CoordinatorConfig::fast_test())
            .with_workers(NonZeroUsize::new(2).unwrap())
            .run(&topology, ChaosConfig::none(), plans, 3)
            .unwrap();
        assert!(report.converged(), "{}", report.render());
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.breaker_trips, 0);
        for s in &report.services {
            assert!(s.deployed(), "{s:?}");
            assert_eq!(s.candidate_replicas, 19, "full stage minus holdback");
        }
        // The ledger carries the full promotion story, no chaos entries.
        assert!(
            report
                .ledger
                .len(&SeriesKey::keyed("a", LedgerKey::CoordinatorPromote))
                >= 2
        );
        assert_eq!(
            report
                .ledger
                .len(&SeriesKey::keyed("bdw16", LedgerKey::ChaosBrownout)),
            0
        );
        assert_eq!(report.faults_injected(), 0);
    }

    #[test]
    fn stepwise_tail_regression_rolls_back_and_ledgers_the_p99_margin() {
        let topology = FleetTopology::paper_pools();
        let mut cfg = CoordinatorConfig::fast_test();
        // Long enough stages to feed the tail guard its sample floor —
        // fast_test's 12-tick stages deliberately starve it.
        cfg.rollout.ticks_per_stage = 24;
        let mut bad = quiet_plan("bad", FailureDomain::new("skl18", "r0"), 13);
        bad.fleet.inject_tail_regression(2.0);
        let report = FleetCoordinator::new(cfg)
            .with_workers(NonZeroUsize::new(2).unwrap())
            .run(&topology, ChaosConfig::none(), vec![bad], 13)
            .unwrap();
        let s = &report.services[0];
        assert!(
            !s.deployed(),
            "a 2x tail regression must not promote to full fleet: {s:?}"
        );
        assert!(report.rollbacks >= 1, "{}", report.render());
        assert!(
            report
                .ledger
                .len(&SeriesKey::keyed("bad", LedgerKey::CoordinatorRollback))
                >= 1
        );
        // Every guarded stage verdict — clean or violating — ledgers its
        // candidate/baseline p99 margin for `skuctl slo`.
        assert!(
            report
                .ledger
                .len(&SeriesKey::keyed("bad", LedgerKey::SloGuardP99))
                >= 1,
            "rollback stages must record the breached p99 margin"
        );
    }

    #[test]
    fn growth_respects_per_tick_budget_and_blast_radius() {
        let topology = FleetTopology::paper_pools();
        let mut cfg = CoordinatorConfig::fast_test();
        cfg.budget.growth_per_tick = 2;
        cfg.blast_radius = 10;
        let plans = vec![
            quiet_plan("a", FailureDomain::new("bdw16", "r0"), 5),
            quiet_plan("b", FailureDomain::new("skl18", "r0"), 5),
        ];
        let report = FleetCoordinator::new(cfg)
            .with_workers(NonZeroUsize::new(1).unwrap())
            .run(&topology, ChaosConfig::none(), plans, 5)
            .unwrap();
        assert!(
            report.max_blast <= 10,
            "blast {} exceeded the cap",
            report.max_blast
        );
        // Stage targets above the cap can never be reached: both services
        // stall mid-ramp and the run truncates at the horizon un-converged.
        assert!(!report.converged());
    }

    #[test]
    fn exhausted_budget_is_terminal() {
        let topology = FleetTopology::paper_pools();
        let mut cfg = CoordinatorConfig::fast_test();
        cfg.budget.total_exposures = 7; // can't even finish the 25 % stage
        let plans = vec![quiet_plan("a", FailureDomain::new("bdw16", "r0"), 9)];
        let report = FleetCoordinator::new(cfg)
            .run(&topology, ChaosConfig::none(), plans, 9)
            .unwrap();
        let s = &report.services[0];
        assert_eq!(s.phase, ServicePhase::Exhausted);
        assert!(
            s.candidate_replicas <= 7,
            "exposure {} exceeds the spent budget",
            s.candidate_replicas
        );
        assert!(report.converged(), "Exhausted is terminal");
        assert_eq!(
            report
                .ledger
                .len(&SeriesKey::keyed("a", LedgerKey::CoordinatorExhausted)),
            1
        );
    }

    #[test]
    fn brownout_lifting_in_window_records_one_recovery_with_nonzero_mttr() {
        let topology = FleetTopology::paper_pools();
        // Load-only brownouts (never dark): before the episode bookkeeping
        // these produced zero recoveries because no service ever entered
        // `Degraded`. Frequent short brownouts so several lift inside even
        // a fast campaign window.
        let chaos = ChaosConfig {
            brownout_rate_per_day: 24.0,
            brownout_duration_s: 1_200.0,
            brownout_depth: 0.3,
            ..ChaosConfig::none()
        };
        let plans = vec![quiet_plan("a", FailureDomain::new("bdw16", "r0"), 7)];
        let report = FleetCoordinator::new(CoordinatorConfig::fast_test())
            .with_workers(NonZeroUsize::new(1).unwrap())
            .run(&topology, chaos, plans, 7)
            .unwrap();

        // Replay the identical chaos timeline and merge overlapping
        // brownouts per pool exactly as the coordinator does: every episode
        // lifting at or before the campaign's end is one recovery.
        let tick_s = 600.0;
        let mut schedule = ChaosSchedule::new(&topology, chaos, 7);
        let mut open: Vec<Option<(f64, f64)>> = vec![None; topology.pool_count()];
        let mut expected = Vec::new();
        let mut t = tick_s;
        while t <= report.sim_time_s + 1e-9 {
            for event in schedule.tick(t) {
                if let ChaosEvent::Brownout {
                    pool,
                    at_s,
                    until_s,
                    ..
                } = event
                {
                    open[pool] = match open[pool] {
                        Some((start, lift)) if at_s < lift => Some((start, lift.max(until_s))),
                        Some((start, lift)) => {
                            expected.push(lift - start);
                            Some((at_s, until_s))
                        }
                        None => Some((at_s, until_s)),
                    };
                }
            }
            for slot in &mut open {
                if let Some((start, lift)) = *slot {
                    if t >= lift {
                        expected.push(lift - start);
                        *slot = None;
                    }
                }
            }
            t += tick_s;
        }

        assert!(
            !expected.is_empty(),
            "seed must produce at least one lifted brownout (sim window {:.0} s)",
            report.sim_time_s
        );
        assert_eq!(
            report.recoveries,
            expected.len() as u64,
            "each lifted brownout episode is exactly one recovery\n{}",
            report.render()
        );
        let want_mttr = expected.iter().sum::<f64>() / expected.len() as f64;
        assert!(
            report.mttr_s > 0.0 && (report.mttr_s - want_mttr).abs() < 1e-6,
            "MTTR {} vs expected {}",
            report.mttr_s,
            want_mttr
        );
        // The ledger carries one coordinator.brownout_recover entry per
        // episode, on the affected pool's scope.
        let booked: usize = (0..topology.pool_count())
            .map(|p| {
                report.ledger.len(&SeriesKey::new(
                    topology.pool_name(p).unwrap_or("?"),
                    LedgerKey::CoordinatorBrownoutRecover.name(),
                ))
            })
            .sum();
        assert_eq!(booked as u64, report.recoveries);
    }

    #[test]
    fn demo_campaign_is_deterministic() {
        let (topo_a, chaos_a, plans_a) = demo_campaign(21).unwrap();
        let (topo_b, chaos_b, plans_b) = demo_campaign(21).unwrap();
        assert_eq!(chaos_a, chaos_b);
        assert_eq!(topo_a.domains(), topo_b.domains());
        let coordinator = FleetCoordinator::new(CoordinatorConfig::fast_test());
        let a = coordinator.run(&topo_a, chaos_a, plans_a, 21).unwrap();
        let b = coordinator.run(&topo_b, chaos_b, plans_b, 21).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.faults_injected() > 0, "the campaign is not silent");
    }
}
