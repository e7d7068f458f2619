//! Deterministic parallel tuning scheduler.
//!
//! The paper's prototype tunes one service at a time, one A/B test at a
//! time, and Sec. 7 concedes that the exhaustive design space "requires an
//! impractically large number of A/B tests" — serial execution is the
//! bottleneck. But every test of a sweep is, by construction, independent:
//! it compares one candidate against a baseline on its own server pair.
//! Real fleets have thousands of such pairs; this module simulates exactly
//! that scale-out. It plans a sweep's tests, seeds each one's forked
//! [`AbEnvironment`] replica from the test's identity, and shards the
//! replicas across the calling thread and scoped helper threads that live
//! for one [`run_tasks`] call. The strategies in [`crate::search`] are
//! built from these pieces.
//!
//! **Determinism is the contract.** Each test's replica is seeded from
//! [`derive_seed`]`(base, service, knob, setting)` — a pure function of the
//! test's *identity*, not of scheduling. Workers pull tests from a shared
//! queue in whatever order the OS runs them and record results into
//! plan-indexed slots, which the caller merges in canonical plan order.
//! Verdicts, maps, and composed configurations are therefore bit-identical
//! for 1, 2, or 64 workers, with or without injected hazards — the property
//! pinned down by `tests/parallel_determinism.rs`.
//!
//! [`FleetTuner`] stacks a second axis on top: all services × platforms
//! tuned concurrently on one worker pool (the fleet-wide µSKU deployment
//! the paper envisions), with per-service wall-clock/throughput counters
//! recorded in an ODS-style ledger.

use crate::abtest::{AbTestConfig, AbTestResult, AbTester};
use crate::error::UskuError;
use crate::metric::PerformanceMetric;
use crate::profile::{ArmCpiStacks, ALL_BOUNDS};
use crate::search::{compose, SearchOutcome};
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::{AbEnvironment, Arm, EnvConfig};
use softsku_knobs::{Knob, KnobSetting, KnobSpace};
use softsku_telemetry::streams::IdentitySeed;
use softsku_telemetry::trace::{AttrValue, SpanHandle, TraceSink};
use softsku_telemetry::{LedgerKey, Ods, SeriesKey, Stopwatch};
use softsku_workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Derives the replica seed for one scheduled A/B test from the tuning base
/// seed and the test's identity `(service, knob, setting)`.
///
/// The derivation hashes the *display names* (stable, human-auditable)
/// through the seed-stream registry's [`IdentitySeed`] FNV-1a builder, so
/// the seed depends only on what is being tested — never on worker count,
/// queue position, or completion order. Two sweeps over the same space with
/// the same base seed replay bit-identically.
pub fn derive_seed(base: u64, service: &str, knob: Knob, setting_label: &str) -> u64 {
    IdentitySeed::new(base)
        .field(service)
        .field(&knob.to_string())
        .field(setting_label)
        .finish()
}

/// Seed for a joint (multi-knob) configuration: the same scheme folded over
/// every constituent setting in sweep order.
pub fn derive_joint_seed(base: u64, service: &str, settings: &[KnobSetting]) -> u64 {
    let mut h = IdentitySeed::new(base).field(service);
    for s in settings {
        h = h.field(&s.knob().to_string()).field(&s.to_string());
    }
    h.finish()
}

/// One planned A/B test: the candidate configuration, measured against
/// its target's baseline on a replica forked from the target's proto at
/// the seed derived from the test's identity.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Index of the [`TrialTarget`] the trial runs against.
    pub target: usize,
    /// The candidate configuration.
    pub config: ServerConfig,
    /// Whether moving from the baseline to `config` needs a reboot.
    pub needs_reboot: bool,
    /// The setting the result is labelled with in the design-space map.
    pub label: KnobSetting,
    /// Replica seed ([`derive_seed`], [`derive_joint_seed`] or the
    /// composer's validation seed).
    pub seed: u64,
}

/// What a [`Trial`] runs against: the tester with its stopping rules and
/// metric, the warmed proto environment every replica forks from, and the
/// baseline configuration the candidate is compared with.
#[derive(Debug, Clone, Copy)]
pub struct TrialTarget<'a> {
    /// The A/B tester.
    pub tester: &'a AbTester,
    /// The proto environment; each trial runs on its own fork.
    pub proto: &'a AbEnvironment,
    /// The control configuration.
    pub baseline: &'a ServerConfig,
}

/// Plans the independent sweep in canonical order against target 0: knobs
/// in the order given, candidates in knob-space order, skipping the
/// baseline's own value of each knob (it is the control). Each trial
/// reboots exactly when its knob [`Knob::requires_reboot`].
///
/// # Errors
///
/// [`UskuError::Knob`] for a candidate that does not apply to `baseline`
/// (a configurator bug, not a verdict).
pub fn plan_independent(
    baseline: &ServerConfig,
    space: &KnobSpace,
    knobs: &[Knob],
    service: &str,
    base_seed: u64,
) -> Result<Vec<Trial>, UskuError> {
    let mut plan = Vec::new();
    for &knob in knobs {
        for &setting in space.candidates(knob) {
            if KnobSetting::read_from(knob, baseline) == setting {
                continue;
            }
            let mut config = baseline.clone();
            setting.apply(&mut config).map_err(UskuError::Knob)?;
            plan.push(Trial {
                target: 0,
                config,
                needs_reboot: knob.requires_reboot(),
                label: setting,
                seed: derive_seed(base_seed, service, knob, &setting.to_string()),
            });
        }
    }
    Ok(plan)
}

/// Plans the exhaustive cross-product sweep against target 0 in canonical
/// (mixed-radix) order, bounded by `budget`: joint configurations that fail
/// to apply, and the all-baseline point, are skipped without spending
/// budget. Each trial comes with its constituent setting of every swept
/// knob, in sweep order, and is labelled with the last of them.
pub fn plan_exhaustive(
    baseline: &ServerConfig,
    space: &KnobSpace,
    knobs: &[Knob],
    budget: usize,
    service: &str,
    base_seed: u64,
) -> Vec<(Trial, Vec<KnobSetting>)> {
    let candidate_lists: Vec<&[KnobSetting]> = knobs.iter().map(|&k| space.candidates(k)).collect();
    let radices: Vec<usize> = candidate_lists.iter().map(|list| list.len()).collect();
    let mut plan = Vec::new();
    odometer(&radices, &mut |indices| {
        let mut config = baseline.clone();
        let mut settings = Vec::with_capacity(knobs.len());
        for (list, &i) in candidate_lists.iter().zip(indices) {
            if list[i].apply(&mut config).is_err() {
                return ControlFlow::Continue(());
            }
            settings.push(list[i]);
        }
        if config == *baseline {
            return ControlFlow::Continue(());
        }
        if plan.len() >= budget {
            return ControlFlow::Break(());
        }
        // A config that differs from the baseline swept at least one knob.
        let Some(&label) = settings.last() else {
            return ControlFlow::Continue(());
        };
        let trial = Trial {
            target: 0,
            needs_reboot: Knob::reboot_between(baseline, &config),
            config,
            label,
            seed: derive_joint_seed(base_seed, service, &settings),
        };
        plan.push((trial, settings));
        ControlFlow::Continue(())
    });
    plan
}

/// Visits every index vector of the mixed-radix space `radices` in canonical
/// order, first dimension fastest, until `visit` breaks. A zero radix
/// empties the space; no dimensions yield the one empty index vector.
///
/// [`plan_exhaustive`] walks knob candidates with it, and the mesh tuner
/// walks per-tier SKU candidates with it. `visit` is a trait object, so
/// one compiled copy serves both crates.
pub fn odometer(radices: &[usize], visit: &mut dyn FnMut(&[usize]) -> ControlFlow<()>) {
    if radices.contains(&0) {
        return;
    }
    let mut indices = vec![0usize; radices.len()];
    loop {
        if visit(&indices).is_break() {
            return;
        }
        let mut d = 0;
        loop {
            if d == radices.len() {
                return;
            }
            indices[d] += 1;
            if indices[d] < radices[d] {
                break;
            }
            indices[d] = 0;
            d += 1;
        }
    }
}

/// Completed run of one [`Trial`].
#[derive(Debug)]
pub struct ReplicaRun {
    /// The A/B verdict the replica produced.
    pub result: AbTestResult,
    /// Simulated machine-seconds the replica consumed.
    pub sim_time_s: f64,
    /// The replica's injected-hazard and recovery event counts.
    pub hazard_counts: Vec<(String, u64)>,
    /// Real wall-clock seconds the test took on its worker.
    pub wall_s: f64,
    /// Per-arm CPI stacks ([`ArmCpiStacks::capture`]), probed only when a
    /// trace consumer wants them — results are identical either way since
    /// the probe is a read-only cache lookup.
    pub cpi: Option<ArmCpiStacks>,
}

/// Runs arbitrary `units` on `workers` workers and returns one result per
/// unit **in plan order**, regardless of which worker ran what or when it
/// finished. The calling thread is one of the workers and the others are
/// scoped threads that live for this one call, so one worker or one unit
/// starts no thread.
///
/// This is the determinism-preserving primitive every parallel consumer in
/// the workspace builds on: [`run_trials`] wraps it for A/B tests, and
/// `demo_campaign`'s fleet builds and the mesh tuner drive their own units
/// through it directly (they are not A/B tests, so the result type is
/// generic).
///
/// Errors are also deterministic: after a failure no further unit starts,
/// and the error reported is the one at the lowest plan index, not the
/// first to lose a race. The error type is the closure's own, so each
/// caller keeps its crate's error variants. A unit that panicked re-raises
/// its payload here, once every worker has joined.
///
/// # Errors
///
/// Returns the lowest-plan-index error produced by `run_one`, if any.
pub fn run_tasks<T, R, E, F>(units: &[T], workers: usize, run_one: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    // One slot per unit: what running it produced, a panic as its payload.
    // Each lock guards one store and no unit runs under it, so a poisoned
    // lock still holds valid data.
    let slots: Vec<Mutex<Option<_>>> = units.iter().map(|_| Mutex::new(None)).collect();
    let run_unit = |i: usize| {
        let unit = units.get(i)?;
        let outcome = catch_unwind(AssertUnwindSafe(|| run_one(unit)));
        let ok = matches!(outcome, Ok(Ok(_)));
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        Some(ok)
    };
    claim_units(workers.min(units.len()), &run_unit);
    let mut results = Vec::with_capacity(units.len());
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok(Ok(result))) => results.push(result),
            Some(Ok(Err(e))) => return Err(e),
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            // Claims are made in plan order and every claimed unit runs to
            // the end, so an unstarted unit follows a failed one, which the
            // scan has already returned on.
            None => {}
        }
    }
    Ok(results)
}

/// The claim loop beneath [`run_tasks`]: the calling thread and `workers −
/// 1` scoped helpers call `run_unit` on plan indices claimed through one
/// atomic cursor (work stealing keeps them busy through uneven unit
/// lengths) until `run_unit` returns `None`, past the last unit, or some
/// unit has failed (`Some(false)`). It sees units only through `run_unit`,
/// so it is compiled once, not once per unit type.
///
/// Relaxed is enough for the cursor and the flag: each claim only needs a
/// distinct index, and outcomes move through the slots' locks and the
/// scope's join.
fn claim_units(workers: usize, run_unit: &(dyn Fn(usize) -> Option<bool> + Sync)) {
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = || {
        while !failed.load(Ordering::Relaxed) {
            match run_unit(cursor.fetch_add(1, Ordering::Relaxed)) {
                None => break,
                Some(true) => {}
                Some(false) => failed.store(true, Ordering::Relaxed),
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// Runs planned A/B `trials` on a pool of `workers` and returns one
/// [`ReplicaRun`] per trial, in plan order ([`run_tasks`]). Each trial
/// forks its target's proto at the trial's seed, runs the tester's
/// [`AbTester::run_config`] on the fork, charges the replica's simulated
/// time and hazard counts, and — only when `probe_cpi` is set — captures
/// the per-arm CPI stacks. Callers warm each proto ([`warm_baseline`])
/// before the pool starts.
///
/// # Errors
///
/// Returns the lowest-plan-index tester or environment error, if any.
pub fn run_trials(
    targets: &[TrialTarget<'_>],
    trials: &[Trial],
    workers: usize,
    probe_cpi: bool,
) -> Result<Vec<ReplicaRun>, UskuError> {
    run_tasks(trials, workers, |trial| {
        // tune.wall_s telemetry only: reported to ODS, never fed into a
        // result.
        let clock = Stopwatch::start();
        let target = &targets[trial.target];
        let mut env = target.proto.fork(trial.seed);
        let result = target.tester.run_config(
            &mut env,
            target.baseline,
            &trial.config,
            trial.needs_reboot,
            trial.label,
        )?;
        // Charge the replica before the (read-only) CPI probe so traced
        // and untraced runs report identical numbers.
        let (sim_time_s, hazard_counts) = (env.time_s(), env.hazard_counts());
        let cpi = if probe_cpi {
            ArmCpiStacks::capture(&mut env)
        } else {
            None
        };
        Ok(ReplicaRun {
            result,
            sim_time_s,
            hazard_counts,
            wall_s: clock.elapsed_s(),
            cpi,
        })
    })
}

/// Records one completed A/B test as a trace span on the sink's current
/// track: name = the candidate setting, interval = `[start_s, start_s +
/// sim_time_s)` on the campaign's cumulative sim-time axis, attributes =
/// the full statistical record (verdict, gain, p-value, relative CI,
/// sample counts, replica seed) plus both arms' TMAM shares and the bound
/// the candidate relieved, when the replica probed CPI stacks.
///
/// Wall-clock time is deliberately absent: spans are part of the
/// deterministic view, and `wall_s` is telemetry-only by the workspace
/// contract.
pub fn trace_test_span(
    sink: &mut TraceSink,
    service: &str,
    platform: &str,
    run: &ReplicaRun,
    seed: u64,
    start_s: f64,
) -> SpanHandle {
    if !sink.is_enabled() {
        return SpanHandle::NONE;
    }
    let r = &run.result;
    let h = sink.open("abtest", &r.setting.to_string(), start_s);
    sink.attr(h, "service", AttrValue::Str(service.to_string()));
    sink.attr(h, "platform", AttrValue::Str(platform.to_string()));
    sink.attr(h, "knob", AttrValue::Str(r.setting.knob().to_string()));
    sink.attr(h, "setting", AttrValue::Str(r.setting.to_string()));
    sink.attr(h, "verdict", AttrValue::Str(r.verdict.label().to_string()));
    if let Some(rel) = r.relative_diff() {
        sink.attr(h, "gain", AttrValue::F64(rel));
    }
    if let Some(w) = &r.welch {
        sink.attr(h, "p_value", AttrValue::F64(w.p_value));
        if let (Some(b), Some(c)) = (&r.baseline, &r.candidate) {
            if b.mean() != 0.0 {
                let (lo, hi) = w.diff_ci(c, b);
                sink.attr(h, "ci_lo", AttrValue::F64(lo / b.mean()));
                sink.attr(h, "ci_hi", AttrValue::F64(hi / b.mean()));
            }
        }
    }
    sink.attr(h, "samples", AttrValue::Int(r.samples as i64));
    sink.attr(h, "attempts", AttrValue::Int(r.attempts as i64));
    sink.attr(
        h,
        "rejected_outliers",
        AttrValue::Int(r.rejected_outliers as i64),
    );
    sink.attr(h, "seed", AttrValue::Str(format!("{seed:#018x}")));
    if let Some(cpi) = &run.cpi {
        for (arm, stack) in [("baseline", cpi.baseline), ("candidate", cpi.candidate)] {
            for bound in ALL_BOUNDS {
                sink.attr(
                    h,
                    &format!("tmam.{arm}.{}", bound.label()),
                    AttrValue::F64(stack.share(bound)),
                );
            }
        }
        if let Some((bound, drop)) = cpi.relieved() {
            sink.attr(
                h,
                "tmam.relieved",
                AttrValue::Str(bound.label().to_string()),
            );
            sink.attr(h, "tmam.relieved_drop", AttrValue::F64(drop));
        }
    }
    sink.close(h, start_s + run.sim_time_s);
    h
}

/// Pre-evaluates the baseline load curve on the proto environment so every
/// fork inherits it from the cloned arm instead of re-running the engine.
/// Best-effort: a replica that misses the warm cache just evaluates lazily.
/// The search strategies, the [`FleetTuner`] and the rollout composer warm
/// their protos through this one routine.
pub fn warm_baseline(proto: &mut AbEnvironment, baseline: &ServerConfig) {
    let arm = proto.arm_mut(Arm::A);
    if arm.reconfigure(baseline.clone(), false).is_ok() {
        let _ = arm.mips(1.0);
    }
}

/// The number of workers to use when the caller does not care: one per
/// available hardware thread.
pub fn default_workers() -> NonZeroUsize {
    const FALLBACK: NonZeroUsize = match NonZeroUsize::new(4) {
        Some(n) => n,
        None => NonZeroUsize::MIN,
    };
    std::thread::available_parallelism().unwrap_or(FALLBACK)
}

/// Scheduling parameters of a search ([`crate::search`]): the base seed the
/// per-test replica seeds derive from, and the worker-pool size. Only the
/// seed affects results; workers affect wall-clock alone.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Base seed for [`derive_seed`] / [`derive_joint_seed`].
    pub base_seed: u64,
    /// Worker-pool size.
    pub workers: NonZeroUsize,
}

impl Schedule {
    /// A schedule with the given base seed and one worker per available
    /// hardware thread.
    pub fn new(base_seed: u64) -> Self {
        Schedule {
            base_seed,
            workers: default_workers(),
        }
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: NonZeroUsize) -> Self {
        self.workers = workers;
        self
    }
}

/// The tuning outcome for one (service, platform) fleet target.
#[derive(Debug)]
pub struct ServiceTuning {
    /// The tuned service.
    pub service: Microservice,
    /// The platform it was tuned on.
    pub platform: PlatformKind,
    /// The sweep outcome (map, best config, selections, and the simulated
    /// machine-seconds its replicas consumed — the fleet "cost" of the
    /// tuning campaign).
    pub outcome: SearchOutcome,
    /// Real wall-clock seconds spent on this service's tests, summed over
    /// workers.
    pub wall_s: f64,
}

/// Outcome of a fleet-wide tuning campaign.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-target results, in the order the targets were given.
    pub services: Vec<ServiceTuning>,
    /// ODS-style per-service counters: series
    /// `<service>@<platform>/tune.wall_s` and `tune.sim_s` carry one point
    /// per test (indexed by canonical plan position).
    pub ods: Ods,
    /// End-to-end wall-clock of the whole campaign, seconds.
    pub wall_s: f64,
}

impl FleetOutcome {
    /// Total A/B tests run across the fleet.
    pub fn test_count(&self) -> usize {
        self.services
            .iter()
            .map(|s| s.outcome.map.test_count())
            .sum()
    }

    /// Fleet-wide tuning throughput, tests per wall-clock second.
    pub fn tests_per_second(&self) -> f64 {
        self.test_count() as f64 / self.wall_s.max(1e-9)
    }

    /// Renders a per-service summary table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet tuning — {} tests in {:.2} s wall ({:.1} tests/s)\n",
            self.test_count(),
            self.wall_s,
            self.tests_per_second()
        );
        for s in &self.services {
            out.push_str(&format!(
                "  {:<8} on {:<12} {:>3} tests  {:>7} samples  {:>6.1} sim-h  {:>6.2} s wall  {} knobs selected\n",
                s.service.to_string(),
                s.platform.to_string(),
                s.outcome.map.test_count(),
                s.outcome.map.sample_count(),
                s.outcome.sim_time_s / 3600.0,
                s.wall_s,
                s.outcome.selected.len()
            ));
            for selection in &s.outcome.selected {
                out.push_str(&format!("      {selection}\n"));
            }
        }
        out
    }
}

/// Tunes every fleet target concurrently on one worker pool.
///
/// This is the fleet-scale front-end the ROADMAP's north star asks for: the
/// full independent-sweep test matrix of all targets (each service with its
/// constraint-gated knob set and its recommended metric) is flattened into
/// one global plan and executed by [`run_trials`] — so a long Web sweep
/// overlaps with short Cache sweeps instead of serializing behind them.
/// Per-test replica seeds are derived from `(service, knob, setting)`, so
/// fleet results are bit-identical to tuning each service alone.
#[derive(Debug, Clone)]
pub struct FleetTuner {
    abtest: AbTestConfig,
    env: EnvConfig,
    base_seed: u64,
    workers: NonZeroUsize,
    knobs: Option<Vec<Knob>>,
}

impl FleetTuner {
    /// Creates a fleet tuner with the given A/B stopping rules and
    /// environment parameters, using every available hardware thread.
    pub fn new(abtest: AbTestConfig, env: EnvConfig, base_seed: u64) -> Self {
        FleetTuner {
            abtest,
            env,
            base_seed,
            workers: default_workers(),
            knobs: None,
        }
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: NonZeroUsize) -> Self {
        self.workers = workers;
        self
    }

    /// Restricts the sweep to a knob subset (intersected with each
    /// service's active knobs); `None` sweeps every active knob.
    pub fn with_knobs(mut self, knobs: Vec<Knob>) -> Self {
        self.knobs = Some(knobs);
        self
    }

    /// Every service on its first supported platform — the paper's
    /// seven-service fleet.
    pub fn default_targets() -> Vec<(Microservice, PlatformKind)> {
        Microservice::ALL
            .iter()
            .map(|&s| (s, s.supported_platforms()[0]))
            .collect()
    }

    /// Tunes all `targets` concurrently and returns per-service outcomes
    /// plus the ODS tuning-telemetry ledger.
    ///
    /// # Errors
    ///
    /// Workload-resolution, environment, and tester errors.
    pub fn tune(
        &self,
        targets: &[(Microservice, PlatformKind)],
    ) -> Result<FleetOutcome, UskuError> {
        self.tune_traced(targets, &mut TraceSink::disabled())
    }

    /// [`FleetTuner::tune`] with observability: every A/B test becomes a
    /// span under a per-target campaign span, on a `tune:<service>@<platform>`
    /// track whose time axis is the campaign's *cumulative simulated
    /// machine-seconds* (test N starts where test N−1's sim time ended).
    /// When the sink is enabled, replicas also probe per-arm CPI stacks so
    /// each span carries TMAM attribution ([`trace_test_span`]).
    ///
    /// Spans are recorded here, post-merge, in canonical plan order — never
    /// from workers — so the trace is bit-identical for any worker count,
    /// and results are bit-identical with tracing on or off.
    ///
    /// # Errors
    ///
    /// Workload-resolution, environment, and tester errors.
    pub fn tune_traced(
        &self,
        targets: &[(Microservice, PlatformKind)],
        sink: &mut TraceSink,
    ) -> Result<FleetOutcome, UskuError> {
        struct Target {
            service: Microservice,
            platform: PlatformKind,
            baseline: ServerConfig,
            tester: AbTester,
            knobs: Vec<Knob>,
            proto: AbEnvironment,
        }

        // tune.wall_s telemetry only: reported to ODS for operators, never
        // fed into a simulated result.
        let clock = Stopwatch::start();
        let mut prepared = Vec::with_capacity(targets.len());
        let mut plan: Vec<Trial> = Vec::new();
        for (target, &(service, platform)) in targets.iter().enumerate() {
            let profile = service.profile(platform)?;
            let baseline = profile.production_config.clone();
            let space = KnobSpace::for_platform(&baseline.platform, profile.constraints);
            let mut knobs = space.active_knobs();
            if let Some(subset) = &self.knobs {
                knobs.retain(|k| subset.contains(k));
            }
            // The proto replica every per-test fork clones; its seed is
            // itself derived from the target identity.
            let env_seed = derive_seed(
                self.base_seed,
                service.name(),
                Knob::CoreFrequency,
                &format!("fleet-proto@{platform}"),
            );
            let mut proto = AbEnvironment::new(profile, self.env, env_seed)?;
            warm_baseline(&mut proto, &baseline);
            let trials =
                plan_independent(&baseline, &space, &knobs, service.name(), self.base_seed)?;
            plan.extend(trials.into_iter().map(|trial| Trial { target, ..trial }));
            prepared.push(Target {
                service,
                platform,
                baseline,
                tester: AbTester::new(self.abtest, PerformanceMetric::recommended_for(service)),
                knobs,
                proto,
            });
        }

        let trial_targets: Vec<TrialTarget<'_>> = prepared
            .iter()
            .map(|t| TrialTarget {
                tester: &t.tester,
                proto: &t.proto,
                baseline: &t.baseline,
            })
            .collect();
        let runs = run_trials(&trial_targets, &plan, self.workers.get(), sink.is_enabled())?;

        // Reassemble per target in canonical order and lay down the ODS
        // tuning counters (one point per test, indexed by plan position).
        let mut ods = Ods::unbounded();
        let mut outcomes: Vec<SearchOutcome> = prepared
            .iter()
            .map(|target| SearchOutcome::start(&target.baseline))
            .collect();
        let mut wall: Vec<f64> = vec![0.0; prepared.len()];
        let mut per_target_idx: Vec<usize> = vec![0; prepared.len()];
        for (trial, run) in plan.iter().zip(&runs) {
            let target = &prepared[trial.target];
            let entity = format!("{}@{}", target.service, target.platform);
            let idx = per_target_idx[trial.target];
            per_target_idx[trial.target] += 1;
            ods.append(
                &SeriesKey::keyed(&entity, LedgerKey::TuneWallS),
                idx as f64,
                run.wall_s,
            )
            // detlint::allow(panic_path): the per-target index increments
            // monotonically, so the ODS append cannot be out of order.
            .expect("plan index is monotone per series");
            ods.append(
                &SeriesKey::keyed(&entity, LedgerKey::TuneSimS),
                idx as f64,
                run.sim_time_s,
            )
            // detlint::allow(panic_path): same monotone index as above.
            .expect("plan index is monotone per series");
            wall[trial.target] += run.wall_s;
            let outcome = &mut outcomes[trial.target];
            outcome.charge(run);
            outcome.map.record(run.result.clone());
        }

        // Lay down the trace: one campaign span per target on its own
        // track, one child span per test at its cumulative sim-time offset.
        // Plan order groups units by target, so campaigns never interleave.
        if sink.is_enabled() {
            let mut cursor: Vec<f64> = vec![0.0; prepared.len()];
            let mut open: Option<(usize, SpanHandle)> = None;
            for (trial, run) in plan.iter().zip(&runs) {
                if open.map(|(t, _)| t) != Some(trial.target) {
                    if let Some((t, h)) = open.take() {
                        sink.close(h, outcomes[t].sim_time_s);
                    }
                    let target = &prepared[trial.target];
                    let entity = format!("{}@{}", target.service.name(), target.platform);
                    let track = sink.track(&format!("tune:{entity}"));
                    sink.set_track(track);
                    let h = sink.open("tune", &format!("campaign {entity}"), 0.0);
                    sink.attr(
                        h,
                        "service",
                        AttrValue::Str(target.service.name().to_string()),
                    );
                    sink.attr(h, "platform", AttrValue::Str(target.platform.to_string()));
                    open = Some((trial.target, h));
                }
                let target = &prepared[trial.target];
                trace_test_span(
                    sink,
                    target.service.name(),
                    &target.platform.to_string(),
                    run,
                    trial.seed,
                    cursor[trial.target],
                );
                cursor[trial.target] += run.sim_time_s;
            }
            if let Some((t, h)) = open.take() {
                sink.close(h, outcomes[t].sim_time_s);
            }
        }

        let mut services = Vec::with_capacity(prepared.len());
        for ((target, mut outcome), wall_s) in prepared.into_iter().zip(outcomes).zip(wall) {
            outcome.selected = outcome.map.winners_of(target.knobs.iter().copied());
            outcome.best_config = compose(&target.baseline, &outcome.selected)?;
            services.push(ServiceTuning {
                service: target.service,
                platform: target.platform,
                outcome,
                wall_s,
            });
        }
        Ok(FleetOutcome {
            services,
            ods,
            wall_s: clock.elapsed_s(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::PerformanceMetric;
    use softsku_knobs::WorkloadConstraints;
    use softsku_workloads::{Microservice, PlatformKind};

    fn setup() -> (AbTester, AbEnvironment, ServerConfig, KnobSpace) {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let baseline = profile.production_config.clone();
        let space = KnobSpace::for_platform(
            &profile.production_config.platform,
            WorkloadConstraints::permissive(),
        );
        let env = AbEnvironment::new(profile, EnvConfig::fast_test(), 21).unwrap();
        let tester = AbTester::new(AbTestConfig::fast_test(), PerformanceMetric::Mips);
        (tester, env, baseline, space)
    }

    #[test]
    fn seeds_depend_on_identity_not_position() {
        let a = derive_seed(7, "Web", Knob::Thp, "thp=always");
        let b = derive_seed(7, "Web", Knob::Thp, "thp=always");
        assert_eq!(a, b, "same identity, same seed");
        assert_ne!(a, derive_seed(8, "Web", Knob::Thp, "thp=always"));
        assert_ne!(a, derive_seed(7, "Ads1", Knob::Thp, "thp=always"));
        assert_ne!(a, derive_seed(7, "Web", Knob::Shp, "thp=always"));
        assert_ne!(a, derive_seed(7, "Web", Knob::Thp, "thp=never"));
        // Separator discipline: shifting a character across the field
        // boundary must change the hash.
        assert_ne!(
            derive_seed(7, "ab", Knob::Thp, "c"),
            derive_seed(7, "a", Knob::Thp, "bc")
        );
    }

    #[test]
    fn independent_plan_is_canonical_and_skips_the_control() {
        let (_, env, baseline, space) = setup();
        let knobs = [Knob::Thp, Knob::Shp];
        let service = env.profile().service.name();
        let plan = plan_independent(&baseline, &space, &knobs, service, 5).unwrap();
        let replay = plan_independent(&baseline, &space, &knobs, service, 5).unwrap();
        assert_eq!(plan.len(), replay.len());
        for (a, b) in plan.iter().zip(&replay) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.config, b.config);
            assert_eq!(a.seed, b.seed);
        }
        for trial in &plan {
            // The baseline's own settings are the control and never planned.
            assert_ne!(
                KnobSetting::read_from(trial.label.knob(), &baseline),
                trial.label
            );
            // The candidate is the baseline plus the labelled setting, and
            // reboots exactly when its knob does (AbTester::run's rule).
            let mut config = baseline.clone();
            trial.label.apply(&mut config).unwrap();
            assert_eq!(trial.config, config);
            assert_eq!(trial.needs_reboot, trial.label.knob().requires_reboot());
            assert_eq!(trial.target, 0);
        }
        // Seeds are pairwise distinct across the plan.
        let mut seeds: Vec<u64> = plan.iter().map(|u| u.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), plan.len());
    }

    #[test]
    fn odometer_assignment_plan_is_canonical() {
        let collect = |radices: &[usize]| {
            let mut plan: Vec<Vec<usize>> = Vec::new();
            odometer(radices, &mut |choice| {
                plan.push(choice.to_vec());
                ControlFlow::Continue(())
            });
            plan
        };
        // Mixed-radix canonical order, first dimension fastest.
        assert_eq!(
            collect(&[2, 2]),
            vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]]
        );
        // Degenerate shapes: an empty dimension empties the plan; no
        // dimensions yield the single empty assignment.
        assert!(collect(&[0]).is_empty());
        assert!(collect(&[2, 0]).is_empty());
        assert_eq!(collect(&[]), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn exhaustive_plan_matches_serial_budget_semantics() {
        let (_, env, baseline, space) = setup();
        let service = env.profile().service.name();
        let plan = plan_exhaustive(&baseline, &space, &[Knob::Thp], 2, service, 5);
        assert!(plan.len() <= 2);
        for (trial, settings) in &plan {
            assert_eq!(settings.len(), 1);
            assert_ne!(trial.config, baseline);
            assert_eq!(trial.label, settings[0]);
            assert_eq!(
                trial.needs_reboot,
                Knob::reboot_between(&baseline, &trial.config)
            );
        }
        // Unbudgeted, THP's cross product is every candidate but the
        // baseline's own (the all-baseline point is skipped), first knob
        // fastest.
        let thp = space.candidates(Knob::Thp);
        let full = plan_exhaustive(&baseline, &space, &[Knob::Thp], 100, service, 5);
        assert_eq!(full.len(), thp.len() - 1);
        // A knob with no candidates empties the whole cross product.
        let gated = KnobSpace::for_platform(
            &baseline.platform,
            WorkloadConstraints {
                uses_shp: false,
                ..WorkloadConstraints::permissive()
            },
        );
        assert!(gated.candidates(Knob::Shp).is_empty());
        assert!(
            plan_exhaustive(&baseline, &gated, &[Knob::Thp, Knob::Shp], 100, service, 5).is_empty()
        );
    }

    #[test]
    fn fleet_tuner_tunes_multiple_services_concurrently() {
        let tuner = FleetTuner::new(AbTestConfig::fast_test(), EnvConfig::fast_test(), 11)
            .with_knobs(vec![Knob::Thp, Knob::CoreFrequency])
            .with_workers(NonZeroUsize::new(4).unwrap());
        let targets = [
            (Microservice::Web, PlatformKind::Skylake18),
            (Microservice::Cache2, PlatformKind::Skylake18),
        ];
        let fleet = tuner.tune(&targets).unwrap();
        assert_eq!(fleet.services.len(), 2);
        assert!(fleet.test_count() > 0);
        assert!(fleet.wall_s > 0.0);
        for s in &fleet.services {
            assert!(s.outcome.map.test_count() > 0, "{}", s.service);
            assert!(s.outcome.sim_time_s > 0.0);
            let entity = format!("{}@{}", s.service, s.platform);
            let key = SeriesKey::keyed(&entity, LedgerKey::TuneWallS);
            assert_eq!(fleet.ods.len(&key), s.outcome.map.test_count());
        }
        let rendered = fleet.render();
        assert!(rendered.contains("fleet tuning"));
        assert!(rendered.contains("Web"));
    }

    #[test]
    fn fleet_tuner_on_one_target_matches_the_independent_sweep() {
        let (service, platform) = (Microservice::Web, PlatformKind::Skylake18);
        let knobs = vec![Knob::Thp, Knob::Shp];
        let base_seed = 11;
        for workers in [1, 2] {
            let workers = NonZeroUsize::new(workers).unwrap();
            let fleet =
                FleetTuner::new(AbTestConfig::fast_test(), EnvConfig::fast_test(), base_seed)
                    .with_knobs(knobs.clone())
                    .with_workers(workers)
                    .tune(&[(service, platform)])
                    .unwrap();
            let tuned = &fleet.services[0].outcome;

            // The proto, tester and knob subset FleetTuner builds.
            let profile = service.profile(platform).unwrap();
            let baseline = profile.production_config.clone();
            let space = KnobSpace::for_platform(&baseline.platform, profile.constraints);
            let mut active = space.active_knobs();
            active.retain(|k| knobs.contains(k));
            let env_seed = derive_seed(
                base_seed,
                service.name(),
                Knob::CoreFrequency,
                &format!("fleet-proto@{platform}"),
            );
            let mut proto = AbEnvironment::new(profile, EnvConfig::fast_test(), env_seed).unwrap();
            let tester = AbTester::new(
                AbTestConfig::fast_test(),
                PerformanceMetric::recommended_for(service),
            );
            let swept = crate::search::independent_sweep(
                &tester,
                &mut proto,
                &baseline,
                &space,
                &active,
                Schedule::new(base_seed).with_workers(workers),
            )
            .unwrap();

            assert_eq!(tuned.map.render(), swept.map.render(), "{workers} workers");
            assert_eq!(tuned.best_config, swept.best_config);
            assert_eq!(tuned.selected, swept.selected);
            assert_eq!(tuned.sim_time_s.to_bits(), swept.sim_time_s.to_bits());
        }
    }

    #[test]
    fn run_tasks_returns_plan_order_and_the_lowest_index_error() {
        let units: Vec<usize> = (0..16).collect();
        for workers in [1, 2, 8] {
            let squares = run_tasks(&units, workers, |&i| Ok::<_, String>(i * i)).unwrap();
            assert_eq!(squares, units.iter().map(|i| i * i).collect::<Vec<_>>());
        }
        let serial = run_tasks(&units, 1, |&i| match i {
            1 | 3 => Err(format!("unit {i}")),
            _ => Ok(i),
        });
        assert_eq!(serial, Err("unit 1".to_string()));
        // Unit 1 fails only after unit 3 has: the later failure loses
        // anyway.
        let unit3_failed = AtomicBool::new(false);
        for workers in [2, 8] {
            unit3_failed.store(false, Ordering::Relaxed);
            let raced = run_tasks(&units, workers, |&i| match i {
                1 => {
                    while !unit3_failed.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    Err(format!("unit {i}"))
                }
                3 => {
                    unit3_failed.store(true, Ordering::Relaxed);
                    Err(format!("unit {i}"))
                }
                _ => Ok(i),
            });
            assert_eq!(raced, Err("unit 1".to_string()), "{workers} workers");
        }
        // No unit starts after a failure: at one worker, units 0–3 run and
        // unit 3's failure stops the claims.
        let started = AtomicUsize::new(0);
        let stopped = run_tasks(&units, 1, |&i| {
            started.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        assert_eq!(stopped, Err(3));
        assert_eq!(started.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn one_worker_or_one_unit_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let units: Vec<usize> = (0..4).collect();
        let on = |_: &usize| Ok::<_, ()>(std::thread::current().id());
        assert_eq!(run_tasks(&units, 1, on).unwrap(), vec![caller; 4]);
        assert_eq!(run_tasks(&units[..1], 8, on).unwrap(), vec![caller]);
    }

    #[test]
    fn a_panicking_unit_reraises_its_payload_and_parks_no_helper() {
        let units: Vec<usize> = (0..16).collect();
        for workers in [1, 2, 8] {
            let caught = std::panic::catch_unwind(|| {
                run_tasks(&units, workers, |&i| {
                    if i == 5 {
                        std::panic::panic_any(format!("unit {i}"));
                    }
                    Ok::<_, ()>(i)
                })
            });
            // Returning at all means every helper joined.
            let payload = caught.expect_err("the unit panicked");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("unit 5"),
                "{workers} workers"
            );
        }
    }
}
