//! Fleet rollout coordinator: many services' staged rollouts at once,
//! robust under domain-correlated chaos.
//!
//! The paper's "@scale" campaigns (Sec. 6) run per-platform soft-SKU
//! rollouts across a heterogeneous fleet. [`FleetCoordinator`] is that
//! layer: it interleaves every service's [`StagedRollout`] in one tick
//! loop, with the fleet-scale safety mechanisms a single-service state
//! machine cannot provide:
//!
//! * **Canary budgets** ([`CanaryBudget`]) — each service exposes at most
//!   `growth_per_tick` new replicas per tick and at most `total_exposures`
//!   across its lifetime; a service that spends its whole budget before
//!   reaching its stage target is terminally [`ServicePhase::Exhausted`]
//!   (no further exposure growth, ever).
//! * **Blast-radius cap** — fleet-wide ceiling on concurrently exposed
//!   candidate replicas, allocated in canonical service order.
//! * **Circuit breaker** — when `breaker_rollbacks` rollbacks land within
//!   a 24-tick sliding window, every promotion and every exposure grow
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
//! private streams; the fleets tick, and every decision — staging,
//! promotion, breaker, quarantine — happens, on the orchestration thread
//! in canonical plan order. A fleet tick is a few microseconds of
//! bookkeeping, less than waking a helper thread would cost, so the loop
//! starts no thread. The whole [`CoordinatorReport`] is therefore a pure
//! function of the plans, the topology, the chaos configuration and the
//! seed, pinned by `tests/chaos_rollout.rs`.

use crate::error::RolloutError;
use crate::rollout::{RolloutConfig, StageReport, StagedRollout, StepDecision};
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::{
    ChaosConfig, ChaosEvent, ChaosSchedule, FailureDomain, FleetTopology, StagedFleet,
    StagedSample, TICK_S,
};
use softsku_telemetry::trace::{AttrValue, SpanHandle, TraceSink};
use softsku_telemetry::{LedgerDomain, LedgerKey, Ods, SeriesKey};
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

/// Sliding window, in coordinator ticks, the circuit breaker counts
/// rollbacks over.
const BREAKER_WINDOW_TICKS: u64 = 24;

/// Coordinator parameters.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Guardrail configuration each service's [`StagedRollout`] runs with.
    pub rollout: RolloutConfig,
    /// Per-service exposure budget.
    pub budget: CanaryBudget,
    /// Fleet-wide cap on concurrently exposed candidate replicas.
    pub blast_radius: usize,
    /// Rollbacks within the breaker's 24-tick sliding window that trip
    /// the circuit breaker.
    pub breaker_rollbacks: usize,
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
        // NB: 12-tick stages deliberately starve the tail guard (it wants
        // 16 samples per group): a p99 estimated from a dozen heavy-tailed
        // draws is a sample max, and gating promotions on the ratio of two
        // sample maxes rolls back healthy services. Campaigns that want the
        // stepwise p99 verdict must run stages at least 16 ticks long.
        CoordinatorConfig {
            rollout,
            budget: CanaryBudget {
                growth_per_tick: 4,
                total_exposures: 1_000,
            },
            blast_radius: 200,
            breaker_rollbacks: 2,
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
    /// Guardrail rollbacks so far; each one is a strike.
    strikes: usize,
    /// A clean stage is waiting for promotion (held by a stall or the
    /// breaker until clear).
    pending_promote: bool,
    /// Exposure to restore when the dark pool recovers.
    degraded_from: usize,
    quarantine_until: u64,
    retries: u64,
    promoted: usize,
    /// Sim time the open recovery episode started at, if any.
    recovery_start: Option<f64>,
}

impl Runtime {
    /// Places `plan` in `topology`, its canary walk begun.
    fn new(
        plan: ServicePlan,
        topology: &FleetTopology,
        cfg: &CoordinatorConfig,
    ) -> Result<Self, RolloutError> {
        let domain = topology
            .domain_index(&plan.domain)
            .ok_or_else(|| plan_domain_error(&plan))?;
        // domain_index succeeded above, so the pool lookup cannot fail.
        let pool = topology
            .pool_of_domain(domain)
            .expect("indexed domains have pools");
        let mut fleet = plan.fleet;
        fleet.set_domain(plan.domain.clone());
        let (rollout, target) = Runtime::walk(&cfg.rollout, &fleet);
        Ok(Runtime {
            name: plan.name,
            fleet,
            candidate: plan.candidate,
            needs_reboot: plan.needs_reboot,
            domain,
            pool,
            domain_name: plan.domain.to_string(),
            rollout,
            phase: ServicePhase::Ramping,
            target,
            exposures_left: cfg.budget.total_exposures,
            strikes: 0,
            pending_promote: false,
            degraded_from: 0,
            quarantine_until: 0,
            retries: 0,
            promoted: 0,
            recovery_start: None,
        })
    }

    /// A fresh canary walk on `fleet`: the machine begun at its first
    /// stage, and that stage's candidate-replica target.
    fn walk(config: &RolloutConfig, fleet: &StagedFleet) -> (StagedRollout, usize) {
        let mut rollout = StagedRollout::new(config.clone());
        let target = fleet.replicas_for(rollout.begin().unwrap_or(0.0));
        (rollout, target)
    }

    /// Opens a recovery episode at `t` unless one is already open.
    fn open_recovery(&mut self, t: f64) {
        self.recovery_start.get_or_insert(t);
    }

    /// Closes the open recovery episode at `t`, returning its length.
    fn close_recovery(&mut self, t: f64) -> Option<f64> {
        self.recovery_start.take().map(|start| t - start)
    }

    /// The service's final standing.
    fn summary(self) -> ServiceSummary {
        ServiceSummary {
            name: self.name,
            domain: self.domain_name,
            phase: self.phase,
            candidate_replicas: self.fleet.candidate_replicas(),
            replicas: self.fleet.replicas(),
            rollbacks: self.strikes as u64,
            retries: self.retries,
            strikes: self.strikes,
            promoted_stages: self.promoted,
        }
    }
}

/// Drives many services' staged rollouts concurrently under a chaos
/// campaign. See the module docs for the mechanism inventory.
#[derive(Debug, Clone)]
pub struct FleetCoordinator {
    config: CoordinatorConfig,
}

impl FleetCoordinator {
    /// Creates a coordinator.
    pub fn new(config: CoordinatorConfig) -> Self {
        FleetCoordinator { config }
    }

    /// Does nothing: the coordinator runs on the calling thread. Kept only
    /// because the `perfbench/` harness calls it.
    pub fn with_workers(self, _workers: NonZeroUsize) -> Self {
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
    /// trip/clear, brownout recovery, retry, demote, degrade, recover,
    /// exhausted, promote, deployed), and a span across every quarantine
    /// period.
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
        let track = sink.track("coordinator");
        sink.set_track(track);
        let root = sink.open("coordinator", "coordinated rollout", 0.0);
        sink.attr(root, "services", AttrValue::Int(plans.len() as i64));
        sink.attr(root, "seed", AttrValue::Str(format!("{seed:#018x}")));

        // Runtimes in plan order: the canonical order every merge and every
        // blast-radius allocation walks.
        let mut runtimes = plans
            .into_iter()
            .map(|plan| Runtime::new(plan, topology, cfg))
            .collect::<Result<Vec<_>, _>>()?;
        let schedule = ChaosSchedule::new(topology, chaos, seed);
        let mut campaign = Campaign::new(cfg, schedule, sink);
        while campaign.report.ticks < cfg.max_ticks {
            campaign.advance();
            campaign.inject(&mut runtimes)?;
            campaign.decide(&mut runtimes)?;
            let samples = runtimes
                .iter_mut()
                .map(|rt| rt.fleet.tick())
                .collect::<Result<Vec<_>, _>>()?;
            campaign.merge(&mut runtimes, &samples)?;
            campaign.breaker()?;
            if runtimes.iter().all(|rt| rt.phase.terminal()) {
                break;
            }
        }
        let report = campaign.finish(runtimes);
        sink.attr(root, "converged", AttrValue::Bool(report.converged()));
        sink.close(root, report.sim_time_s);
        Ok(report)
    }
}

/// The coordinator loop's state: the report under construction (tick
/// clock, fleet-wide counters, ledger), the trace, and the bookkeeping
/// behind recoveries and the breaker. Each tick runs the phases inject →
/// decide → fleet ticks in plan order → merge → breaker.
struct Campaign<'a> {
    cfg: &'a CoordinatorConfig,
    schedule: ChaosSchedule,
    sink: &'a mut TraceSink,
    report: CoordinatorReport,
    /// Completed recovery episodes' lengths, in completion order.
    recoveries: Vec<f64>,
    /// Open brownout episode per pool: (injected_at_s, lifts_at_s). A
    /// brownout landing on an already-browned pool extends the open
    /// episode — the pool recovers once, when the last overlapping
    /// brownout lifts — mirroring how `ChaosSchedule::load_multiplier`
    /// keys off the maximum `until` per pool.
    brownout_open: Vec<Option<(f64, f64)>>,
    /// Ticks of the rollbacks inside the breaker's sliding window.
    rollback_ticks: Vec<u64>,
    /// While the breaker is tripped: the tick its freeze expires.
    frozen_until: Option<u64>,
}

impl<'a> Campaign<'a> {
    fn new(cfg: &'a CoordinatorConfig, schedule: ChaosSchedule, sink: &'a mut TraceSink) -> Self {
        let pools = schedule.topology().pool_count();
        Campaign {
            cfg,
            schedule,
            sink,
            report: CoordinatorReport {
                services: Vec::new(),
                ticks: 0,
                sim_time_s: 0.0,
                faults: [0; 4],
                breaker_trips: 0,
                rollbacks: 0,
                quarantines: 0,
                demotions: 0,
                max_blast: 0,
                recoveries: 0,
                mttr_s: 0.0,
                ledger: Ods::chaos_ledger(),
            },
            recoveries: Vec::new(),
            brownout_open: vec![None; pools],
            rollback_ticks: Vec::new(),
            frozen_until: None,
        }
    }

    /// Starts the next tick on the simulated clock.
    fn advance(&mut self) {
        self.report.ticks += 1;
        self.report.sim_time_s += TICK_S;
    }

    /// Records one coordinator reaction: a `key` point on `entity`, then a
    /// `coordinator.event` leaf named after `key` without its domain
    /// prefix, returned for the call site's attributes.
    fn react(
        &mut self,
        entity: &str,
        key: LedgerKey,
        t: f64,
        value: f64,
    ) -> Result<SpanHandle, RolloutError> {
        let series = SeriesKey::keyed(entity, key);
        self.report.ledger.append(&series, t, value)?;
        let name = key
            .name()
            .trim_start_matches(LedgerDomain::Coordinator.prefix());
        let sink = &mut *self.sink;
        Ok(sink.leaf(LedgerKey::CoordinatorEvent.name(), name, t, 0.0))
    }

    /// [`Campaign::react`] on service `rt` at the current tick, naming it
    /// in the leaf's `service` attribute.
    fn react_on(
        &mut self,
        rt: &Runtime,
        key: LedgerKey,
        value: f64,
    ) -> Result<SpanHandle, RolloutError> {
        let leaf = self.react(&rt.name, key, self.report.sim_time_s, value)?;
        self.sink
            .attr(leaf, "service", AttrValue::Str(rt.name.clone()));
        Ok(leaf)
    }

    /// Phase 1, chaos injection in canonical family order: every fault is
    /// a ledger entry (entity = affected pool or domain) and a span, and
    /// brownout episodes that have lifted close as recoveries.
    fn inject(&mut self, runtimes: &mut [Runtime]) -> Result<(), RolloutError> {
        let t = self.report.sim_time_s;
        for event in self.schedule.tick(t) {
            let idx = match event {
                ChaosEvent::Brownout { .. } => 0,
                ChaosEvent::PushWave { .. } => 1,
                ChaosEvent::CanaryCrash { .. } => 2,
                ChaosEvent::StageStall { .. } => 3,
            };
            self.report.faults[idx] += 1;
            let scope = event.scope(self.schedule.topology());
            let series = SeriesKey::new(&scope, event.metric());
            self.report
                .ledger
                .append(&series, event.at_s(), event.magnitude())?;
            let cat = LedgerKey::ChaosEvent.name();
            let leaf = self.sink.leaf(cat, event.metric(), event.at_s(), 0.0);
            self.sink.attr(leaf, "scope", AttrValue::Str(scope));
            let magnitude = AttrValue::F64(event.magnitude());
            self.sink.attr(leaf, "magnitude", magnitude);
            match event {
                ChaosEvent::PushWave { pool, erosion, .. } => {
                    for rt in runtimes.iter_mut().filter(|rt| rt.pool == pool) {
                        rt.fleet.apply_push_wave(erosion);
                    }
                }
                ChaosEvent::CanaryCrash {
                    domain,
                    until_s,
                    replicas,
                    ..
                } => {
                    for rt in runtimes.iter_mut().filter(|rt| rt.domain == domain) {
                        rt.fleet.crash_candidates(replicas, until_s);
                    }
                }
                // Brownouts act through the per-tick load multiplier;
                // their recovery episodes are tracked here so a load-only
                // brownout — which never forces a service into `Degraded`
                // — still lands in the MTTR books when it lifts.
                ChaosEvent::Brownout {
                    pool,
                    at_s,
                    until_s,
                    ..
                } => match self.brownout_open[pool] {
                    Some((start, lift)) if at_s < lift => {
                        self.brownout_open[pool] = Some((start, lift.max(until_s)));
                    }
                    _ => {
                        // A previous episode lifted earlier this tick,
                        // before this new brownout began; close it now so
                        // its recovery is not overwritten.
                        self.close_brownout(pool)?;
                        self.brownout_open[pool] = Some((at_s, until_s));
                    }
                },
                // Stalls act through the promotion gate.
                ChaosEvent::StageStall { .. } => {}
            }
        }
        // Episodes still open when the campaign ends never count — the
        // fleet did not recover inside the observed window.
        for pool in 0..self.brownout_open.len() {
            if matches!(self.brownout_open[pool], Some((_, lift)) if t >= lift) {
                self.close_brownout(pool)?;
            }
        }
        Ok(())
    }

    /// Books `pool`'s open brownout episode, if any, as one completed
    /// recovery (MTTR = injection → lift) and clears it.
    fn close_brownout(&mut self, pool: usize) -> Result<(), RolloutError> {
        let Some((start, lift)) = self.brownout_open[pool].take() else {
            return Ok(());
        };
        let mttr = lift - start;
        self.recoveries.push(mttr);
        let topology = self.schedule.topology();
        let name = topology.pool_name(pool).unwrap_or("?").to_string();
        let key = LedgerKey::CoordinatorBrownoutRecover;
        let leaf = self.react(&name, key, lift, mttr)?;
        self.sink.attr(leaf, "pool", AttrValue::Str(name));
        self.sink.attr(leaf, "mttr_s", AttrValue::F64(mttr));
        Ok(())
    }

    /// Phase 2, pre-tick decisions in canonical order: breaker clear, load
    /// multipliers, dark-pool degradation, quarantine expiry, and
    /// budget-metered exposure growth under the blast-radius cap.
    fn decide(&mut self, runtimes: &mut [Runtime]) -> Result<(), RolloutError> {
        let (cfg, tick, t) = (self.cfg, self.report.ticks, self.report.sim_time_s);
        if matches!(self.frozen_until, Some(until) if tick >= until) {
            self.frozen_until = None;
            self.react("fleet", LedgerKey::CoordinatorBreakerClear, t, 1.0)?;
        }
        let frozen = self.frozen_until.is_some();
        let mut blast: usize = runtimes
            .iter()
            .map(|rt| rt.fleet.candidate_replicas())
            .sum();
        for rt in runtimes.iter_mut() {
            rt.fleet
                .set_external_load(self.schedule.load_multiplier(rt.pool, t));
            let dark = self.schedule.pool_dark(rt.pool, t);
            match rt.phase {
                ServicePhase::Ramping if dark => {
                    rt.degraded_from = rt.fleet.candidate_replicas();
                    blast -= rt.degraded_from;
                    rt.fleet.stage_replicas(0);
                    rt.phase = ServicePhase::Degraded;
                    rt.open_recovery(t);
                    let from = rt.degraded_from as f64;
                    let leaf = self.react_on(rt, LedgerKey::CoordinatorDegrade, from)?;
                    let domain = AttrValue::Str(rt.domain_name.clone());
                    self.sink.attr(leaf, "domain", domain);
                }
                ServicePhase::Degraded if !dark => {
                    // Restoring prior exposure is not new exposure — the
                    // budget was already charged for it.
                    let restored = rt.fleet.stage_replicas(rt.degraded_from);
                    blast += restored;
                    rt.phase = ServicePhase::Ramping;
                    self.recoveries.extend(rt.close_recovery(t));
                    self.react_on(rt, LedgerKey::CoordinatorRecover, restored as f64)?;
                }
                ServicePhase::Quarantined if tick >= rt.quarantine_until && !frozen => {
                    // Retry: redeploy the candidate against current code
                    // (drift reset) and restart the canary walk.
                    rt.fleet
                        .deploy_candidate(rt.candidate.clone(), rt.needs_reboot)?;
                    (rt.rollout, rt.target) = Runtime::walk(&cfg.rollout, &rt.fleet);
                    rt.phase = ServicePhase::Ramping;
                    rt.pending_promote = false;
                    rt.retries += 1;
                    let leaf = self.react_on(rt, LedgerKey::CoordinatorRetry, 1.0)?;
                    let strikes = AttrValue::Int(rt.strikes as i64);
                    self.sink.attr(leaf, "strikes", strikes);
                }
                _ => {}
            }

            let current = rt.fleet.candidate_replicas();
            if rt.phase != ServicePhase::Ramping || frozen || current >= rt.target {
                continue;
            }
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
            let exposed = rt.fleet.candidate_replicas();
            if rt.exposures_left == 0 && exposed < rt.target {
                rt.phase = ServicePhase::Exhausted;
                rt.pending_promote = false;
                self.react_on(rt, LedgerKey::CoordinatorExhausted, exposed as f64)?;
            }
        }
        self.report.max_blast = self.report.max_blast.max(blast);
        Ok(())
    }

    /// Phase 4, the merge in canonical order: guardrail stepping,
    /// promotion gating, rollback → breaker/quarantine/demotion.
    fn merge(
        &mut self,
        runtimes: &mut [Runtime],
        samples: &[StagedSample],
    ) -> Result<(), RolloutError> {
        let t = self.report.sim_time_s;
        let frozen = self.frozen_until.is_some();
        for (rt, sample) in runtimes.iter_mut().zip(samples) {
            if rt.phase != ServicePhase::Ramping {
                continue;
            }
            // The stage clock only runs at full stage exposure: a ramp
            // still throttled by the canary budget or the blast-radius cap
            // has not yet *started* its observation window, so a capped
            // fleet stalls mid-ramp instead of promoting on a partial
            // canary group.
            let staged = rt.fleet.candidate_replicas();
            if !rt.pending_promote && staged >= rt.target {
                let decision = rt.rollout.step(sample, staged)?;
                // Every stage verdict, clean or violating, ledgers its
                // guarded p99 margin, so `skuctl slo` charts the headroom
                // a promotion had, not only the breaches.
                if let StepDecision::StageClean { report, .. }
                | StepDecision::RolledBack { report, .. } = &decision
                {
                    if let Some(margin) = report.p99_margin() {
                        let series = SeriesKey::keyed(&rt.name, LedgerKey::SloGuardP99);
                        self.report.ledger.append(&series, t, margin)?;
                    }
                }
                match decision {
                    StepDecision::Observing => {}
                    StepDecision::StageClean { .. } => rt.pending_promote = true,
                    StepDecision::RolledBack { stage, report } => {
                        self.roll_back(rt, stage, &report)?;
                        continue;
                    }
                }
            }
            if rt.pending_promote && !frozen && !self.schedule.stalled(rt.domain, t) {
                rt.pending_promote = false;
                rt.promoted += 1;
                if let Some(fraction) = rt.rollout.promote() {
                    rt.target = rt.fleet.replicas_for(fraction);
                    let leaf = self.react_on(rt, LedgerKey::CoordinatorPromote, fraction)?;
                    self.sink.attr(leaf, "fraction", AttrValue::F64(fraction));
                } else {
                    rt.phase = ServicePhase::Deployed;
                    self.recoveries.extend(rt.close_recovery(t));
                    self.react_on(rt, LedgerKey::CoordinatorDeployed, 1.0)?;
                }
            }
        }
        Ok(())
    }

    /// A guardrail fired on `rt`'s canary `stage`: revert the fleet, take a
    /// strike, and quarantine with exponential backoff — or, at
    /// `max_strikes`, demote for good.
    fn roll_back(
        &mut self,
        rt: &mut Runtime,
        stage: usize,
        stats: &StageReport,
    ) -> Result<(), RolloutError> {
        let (cfg, tick, t) = (self.cfg, self.report.ticks, self.report.sim_time_s);
        rt.fleet.rollback();
        rt.strikes += 1;
        rt.open_recovery(t);
        self.rollback_ticks.push(tick);
        let leaf = self.react_on(rt, LedgerKey::CoordinatorRollback, stage as f64)?;
        self.sink.attr(leaf, "stage", AttrValue::Int(stage as i64));
        let diff = AttrValue::F64(stats.relative_diff);
        self.sink.attr(leaf, "relative_diff", diff);
        if let Some(v) = stats.violation {
            let violation = AttrValue::Str(format!("{v:?}"));
            self.sink.attr(leaf, "violation", violation);
        }
        if rt.strikes >= cfg.max_strikes {
            rt.phase = ServicePhase::Demoted;
            // A demoted service never recovers: its open episode is
            // dropped, not counted.
            rt.recovery_start = None;
            self.report.demotions += 1;
            self.react_on(rt, LedgerKey::CoordinatorDemote, rt.strikes as f64)?;
            return Ok(());
        }
        let backoff = cfg.quarantine_backoff_ticks << (rt.strikes as u64 - 1);
        rt.quarantine_until = tick + backoff;
        rt.phase = ServicePhase::Quarantined;
        self.report.quarantines += 1;
        let key = LedgerKey::CoordinatorQuarantine;
        let series = SeriesKey::keyed(&rt.name, key);
        self.report.ledger.append(&series, t, backoff as f64)?;
        let name = format!("quarantine {}", rt.name);
        let period_s = backoff as f64 * TICK_S;
        let span = self.sink.leaf(key.name(), &name, t, period_s);
        self.sink
            .attr(span, "service", AttrValue::Str(rt.name.clone()));
        let backoff = AttrValue::Int(backoff as i64);
        self.sink.attr(span, "backoff_ticks", backoff);
        Ok(())
    }

    /// Phase 5, the circuit breaker: N rollbacks inside the sliding window
    /// freeze the whole fleet's promotions and growth.
    fn breaker(&mut self) -> Result<(), RolloutError> {
        let (cfg, tick, t) = (self.cfg, self.report.ticks, self.report.sim_time_s);
        self.rollback_ticks
            .retain(|&rb| tick - rb < BREAKER_WINDOW_TICKS);
        let in_window = self.rollback_ticks.len();
        if self.frozen_until.is_some() || in_window < cfg.breaker_rollbacks {
            return Ok(());
        }
        self.frozen_until = Some(tick + cfg.breaker_freeze_ticks);
        self.report.breaker_trips += 1;
        let key = LedgerKey::CoordinatorBreakerTrip;
        let leaf = self.react("fleet", key, t, in_window as f64)?;
        let in_window = AttrValue::Int(in_window as i64);
        self.sink.attr(leaf, "rollbacks_in_window", in_window);
        self.rollback_ticks.clear();
        Ok(())
    }

    /// The finished report: every service's standing, the fleet's rollback
    /// total, and the recovery books.
    fn finish(mut self, runtimes: Vec<Runtime>) -> CoordinatorReport {
        let report = &mut self.report;
        report.services = runtimes.into_iter().map(Runtime::summary).collect();
        report.rollbacks = report.services.iter().map(|s| s.rollbacks).sum();
        report.recoveries = self.recoveries.len() as u64;
        if !self.recoveries.is_empty() {
            report.mttr_s = self.recoveries.iter().sum::<f64>() / self.recoveries.len() as f64;
        }
        self.report
    }
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
/// The four fleets are built in parallel ([`run_tasks`]): each build is a
/// cold calibration window, and each fleet's seed derives from `(seed,
/// service, domain)`, so the plans are identical for any worker count.
///
/// Returns the topology, chaos configuration, and plans (in target
/// order); run them with a [`FleetCoordinator`].
///
/// # Errors
///
/// Workload-resolution and fleet-construction errors; the first target's
/// error when several fail.
pub fn demo_campaign(
    seed: u64,
) -> Result<(FleetTopology, ChaosConfig, Vec<ServicePlan>), RolloutError> {
    demo_campaign_on(seed, usku::scheduler::default_workers())
}

/// [`demo_campaign`] with its fleets built on `workers` workers.
fn demo_campaign_on(
    seed: u64,
    workers: NonZeroUsize,
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

    let plans = run_tasks(
        &targets,
        workers.get(),
        |&(service, platform, pool, rack)| -> Result<ServicePlan, RolloutError> {
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
            Ok(ServicePlan {
                name: service.name().to_lowercase(),
                fleet,
                candidate,
                needs_reboot: false,
                domain,
            })
        },
    )?;
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
            .run(&topology, chaos, plans, 7)
            .unwrap();

        // Replay the identical chaos timeline and merge overlapping
        // brownouts per pool exactly as the coordinator does: every episode
        // lifting at or before the campaign's end is one recovery.
        let mut schedule = ChaosSchedule::new(&topology, chaos, 7);
        let mut open: Vec<Option<(f64, f64)>> = vec![None; topology.pool_count()];
        let mut expected = Vec::new();
        let mut t = TICK_S;
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
            t += TICK_S;
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
        // Built on 1, 2 and 8 workers (the first build is cold, the later
        // ones hit the pass memo): the plans come back in target order,
        // their fleets (seeded noise streams included) render the same,
        // and so does the campaign they drive. The report alone would miss
        // a fleet seed mix-up: this campaign's outcome is set by its chaos.
        let coordinator = FleetCoordinator::new(CoordinatorConfig::fast_test());
        let mut reference: Option<(String, String)> = None;
        for workers in [1, 2, 8] {
            let (topology, chaos, plans) =
                demo_campaign_on(21, NonZeroUsize::new(workers).unwrap()).unwrap();
            let placed: Vec<(&str, String)> = plans
                .iter()
                .map(|p| (p.name.as_str(), p.domain.to_string()))
                .collect();
            assert_eq!(
                placed,
                [
                    ("web", "bdw16/r0".to_string()),
                    ("feed1", "skl18/r0".to_string()),
                    ("ads1", "skl18/r1".to_string()),
                    ("cache2", "skl18/r0".to_string()),
                ],
                "{workers} workers"
            );
            let fleets = format!("{plans:?}");
            let report = coordinator.run(&topology, chaos, plans, 21).unwrap();
            assert!(report.faults_injected() > 0, "the campaign is not silent");
            let view = format!("{report:?}");
            match &reference {
                None => reference = Some((fleets, view)),
                Some((first_fleets, first)) => {
                    assert!(
                        *first_fleets == fleets,
                        "{workers} workers: the plans differ"
                    );
                    assert!(*first == view, "{workers} workers: the report differs");
                }
            }
        }
    }
}
