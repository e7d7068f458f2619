//! Deterministic parallel tuning scheduler.
//!
//! The paper's prototype tunes one service at a time, one A/B test at a
//! time, and Sec. 7 concedes that the exhaustive design space "requires an
//! impractically large number of A/B tests" — serial execution is the
//! bottleneck. But every test of an independent sweep is, by construction,
//! independent: it compares one candidate setting against the production
//! baseline on its own server pair. Real fleets have thousands of such
//! pairs; this module simulates exactly that scale-out by sharding the
//! tests of a sweep across a [`std::thread::scope`] worker pool, one forked
//! [`AbEnvironment`] replica per test.
//!
//! **Determinism is the contract.** Each test's replica is seeded from
//! [`derive_seed`]`(base, service, knob, setting)` — a pure function of the
//! test's *identity*, not of scheduling. Workers pull tests from a shared
//! queue in whatever order the OS runs them, record results into
//! plan-indexed slots, and the scheduler merges those slots back into the
//! [`DesignSpaceMap`] in canonical plan order. Verdicts, maps, and composed
//! configurations are therefore bit-identical for 1, 2, or 64 workers,
//! with or without injected hazards — the property pinned down by
//! `tests/parallel_determinism.rs`.
//!
//! [`FleetTuner`] stacks a second axis on top: all services × platforms
//! tuned concurrently on one worker pool (the fleet-wide µSKU deployment
//! the paper envisions), with per-service wall-clock/throughput counters
//! recorded in an ODS-style ledger.

use crate::abtest::{AbTestConfig, AbTestResult, AbTester};
use crate::error::UskuError;
use crate::map::DesignSpaceMap;
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// One schedulable A/B test of an independent sweep: a candidate setting
/// plus the replica seed derived from its identity.
#[derive(Debug, Clone)]
pub struct TestUnit {
    /// The candidate setting to test against the baseline.
    pub setting: KnobSetting,
    /// Replica seed ([`derive_seed`]).
    pub seed: u64,
}

/// One schedulable test of an exhaustive sweep: a whole joint configuration.
#[derive(Debug, Clone)]
pub struct JointUnit {
    /// The joint candidate configuration.
    pub config: ServerConfig,
    /// The constituent setting of every swept knob, in sweep order.
    pub settings: Vec<KnobSetting>,
    /// Replica seed ([`derive_joint_seed`]).
    pub seed: u64,
}

/// Plans the independent sweep in canonical order: knobs in the order
/// given, candidates in knob-space order, skipping the baseline's own value
/// of each knob (it is the control) — exactly the tests
/// [`crate::search::independent_sweep`] would run serially.
pub fn plan_independent(
    baseline: &ServerConfig,
    space: &KnobSpace,
    knobs: &[Knob],
    service: &str,
    base_seed: u64,
) -> Vec<TestUnit> {
    let mut plan = Vec::new();
    for &knob in knobs {
        for &setting in space.candidates(knob) {
            if KnobSetting::read_from(knob, baseline) == setting {
                continue;
            }
            plan.push(TestUnit {
                setting,
                seed: derive_seed(base_seed, service, knob, &setting.to_string()),
            });
        }
    }
    plan
}

/// Plans the exhaustive cross-product sweep in canonical (mixed-radix)
/// order, bounded by `budget` — the same enumeration, validity gating, and
/// budget accounting as the serial [`crate::search::exhaustive_sweep`].
pub fn plan_exhaustive(
    baseline: &ServerConfig,
    space: &KnobSpace,
    knobs: &[Knob],
    budget: usize,
    service: &str,
    base_seed: u64,
) -> Vec<JointUnit> {
    let candidate_lists: Vec<&[KnobSetting]> = knobs.iter().map(|&k| space.candidates(k)).collect();
    let mut plan = Vec::new();
    let mut indices = vec![0usize; knobs.len()];
    'outer: loop {
        let mut config = baseline.clone();
        let mut settings = Vec::with_capacity(knobs.len());
        let mut valid = true;
        for (i, list) in candidate_lists.iter().enumerate() {
            if list.is_empty() {
                valid = false;
                break;
            }
            let setting = list[indices[i]];
            if setting.apply(&mut config).is_err() {
                valid = false;
                break;
            }
            settings.push(setting);
        }
        if valid && config != *baseline {
            if plan.len() >= budget {
                break 'outer;
            }
            let seed = derive_joint_seed(base_seed, service, &settings);
            plan.push(JointUnit {
                config,
                settings,
                seed,
            });
        }
        let mut i = 0;
        loop {
            if i == knobs.len() {
                break 'outer;
            }
            indices[i] += 1;
            if indices[i] < candidate_lists[i].len().max(1) {
                break;
            }
            indices[i] = 0;
            i += 1;
        }
    }
    plan
}

/// One planned joint assignment across several named dimensions (tiers of a
/// service graph, services of a fleet): the chosen candidate index per
/// dimension plus the replica seed derived from the assignment's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignmentUnit {
    /// Chosen candidate index per dimension, in dimension order.
    pub choice: Vec<usize>,
    /// Replica seed ([`derive_assignment_seed`]).
    pub seed: u64,
}

/// Seed for one joint assignment: the scheduler's [`IdentitySeed`] scheme
/// folded over `(scope, dimension, candidate-label)` for every dimension in
/// order — a pure function of *what* is assigned, never of plan position or
/// worker scheduling.
pub fn derive_assignment_seed(base: u64, scope: &str, labels: &[(&str, &str)]) -> u64 {
    let mut h = IdentitySeed::new(base).field(scope);
    for (dimension, label) in labels {
        h = h.field(dimension).field(label);
    }
    h.finish()
}

/// Plans the full cross product of per-dimension candidates in canonical
/// mixed-radix order (first dimension fastest, matching
/// [`plan_exhaustive`]), one [`AssignmentUnit`] per joint assignment.
///
/// This is the graph-objective planning primitive: an end-to-end objective
/// (the mesh crate's graph p99) cannot score dimensions independently, so
/// its tuner enumerates joint assignments here and shards them over
/// [`run_tasks`] — same canonical-order merge, same bit-identity across
/// worker counts. An empty dimension empties the whole plan (its cross
/// product is empty); no dimensions yield the single empty assignment.
pub fn plan_assignments(
    base: u64,
    scope: &str,
    dims: &[(String, Vec<String>)],
) -> Vec<AssignmentUnit> {
    if dims.iter().any(|(_, candidates)| candidates.is_empty()) {
        return Vec::new();
    }
    let mut plan = Vec::new();
    let mut indices = vec![0usize; dims.len()];
    loop {
        let labels: Vec<(&str, &str)> = dims
            .iter()
            .zip(&indices)
            .map(|((name, candidates), &i)| (name.as_str(), candidates[i].as_str()))
            .collect();
        plan.push(AssignmentUnit {
            choice: indices.clone(),
            seed: derive_assignment_seed(base, scope, &labels),
        });
        let mut d = 0;
        loop {
            if d == dims.len() {
                return plan;
            }
            indices[d] += 1;
            if indices[d] < dims[d].1.len() {
                break;
            }
            indices[d] = 0;
            d += 1;
        }
    }
}

/// What a replica closure hands back to the scheduler: the A/B verdict,
/// the simulated time consumed, and (when tracing asked for it) the
/// per-arm CPI stacks captured after the test.
#[derive(Debug)]
pub struct ReplicaOutput {
    /// The A/B verdict the replica produced.
    pub result: AbTestResult,
    /// Simulated machine-seconds the replica consumed.
    pub sim_time_s: f64,
    /// Per-arm CPI stacks ([`ArmCpiStacks::capture`]), probed only when a
    /// trace consumer wants them — results are identical either way since
    /// the probe is a read-only cache lookup.
    pub cpi: Option<ArmCpiStacks>,
}

impl ReplicaOutput {
    /// An output with no CPI profile attached.
    pub fn new(result: AbTestResult, sim_time_s: f64) -> Self {
        ReplicaOutput {
            result,
            sim_time_s,
            cpi: None,
        }
    }
}

/// Completed run of one scheduled unit.
#[derive(Debug)]
pub struct ReplicaRun {
    /// The A/B verdict the replica produced.
    pub result: AbTestResult,
    /// Simulated machine-seconds the replica consumed.
    pub sim_time_s: f64,
    /// Real wall-clock seconds the test took on its worker.
    pub wall_s: f64,
    /// Per-arm CPI stacks, when the closure probed them.
    pub cpi: Option<ArmCpiStacks>,
}

/// Runs arbitrary `units` on a scoped worker pool and returns one result
/// per unit **in plan order**, regardless of which worker ran what or when
/// it finished. Workers pull from a shared atomic cursor (work stealing
/// keeps them busy through uneven task lengths) and deposit into
/// plan-indexed slots; nothing about the output depends on scheduling.
///
/// This is the determinism-preserving primitive every parallel consumer in
/// the workspace builds on: [`run_replicas`] wraps it for A/B replicas, and
/// the rollout coordinator drives concurrent staged fleets through it
/// directly (its per-service runtimes are not A/B tests, so the result type
/// is generic).
///
/// Errors are also deterministic: every unit either completes or the pool
/// drains early, and the error reported is the one at the lowest plan
/// index, not the first to lose a race.
///
/// # Errors
///
/// Returns the lowest-plan-index error produced by `run_one`, if any.
pub fn run_tasks<T, R, F>(units: &[T], workers: usize, run_one: F) -> Result<Vec<R>, UskuError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, UskuError> + Sync,
{
    let workers = workers.max(1).min(units.len().max(1));
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<Result<R, UskuError>>>> =
        Mutex::new((0..units.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= units.len() {
                    break;
                }
                let outcome = run_one(&units[i]);
                if outcome.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                // detlint::allow(panic_path): lock poisoning requires a prior
                // worker panic; propagating it is the correct response.
                slots.lock().expect("no panics hold the slot lock")[i] = Some(outcome);
            });
        }
    });

    let mut runs = Vec::with_capacity(units.len());
    // detlint::allow(panic_path): scope guarantees every worker has joined;
    // a poisoned mutex here means a worker already panicked.
    for slot in slots.into_inner().expect("workers joined") {
        match slot {
            Some(Ok(run)) => runs.push(run),
            Some(Err(e)) => return Err(e),
            // A later unit may be unstarted after an early failure; only
            // reachable when some slot errored, which the scan above hits
            // first only if it sits at a lower index — so scan on.
            None => break,
        }
    }
    Ok(runs)
}

/// [`run_tasks`] specialized to A/B replicas: wraps each unit's
/// [`ReplicaOutput`] into a [`ReplicaRun`] with the wall-clock seconds its
/// worker spent on it.
///
/// # Errors
///
/// Returns the lowest-plan-index error produced by `run_one`, if any.
pub fn run_replicas<T, F>(
    units: &[T],
    workers: usize,
    run_one: F,
) -> Result<Vec<ReplicaRun>, UskuError>
where
    T: Sync,
    F: Fn(&T) -> Result<ReplicaOutput, UskuError> + Sync,
{
    run_tasks(units, workers, |unit| {
        // tune.wall_s telemetry only: reported to ODS, never fed into a
        // result.
        let clock = Stopwatch::start();
        run_one(unit).map(|out| ReplicaRun {
            result: out.result,
            sim_time_s: out.sim_time_s,
            wall_s: clock.elapsed_s(),
            cpi: out.cpi,
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
    confidence: f64,
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
                let (lo, hi) = w.diff_ci(c, b, confidence);
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
fn warm_baseline(proto: &mut AbEnvironment, baseline: &ServerConfig) {
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

/// Scheduling parameters shared by the parallel sweeps: the base seed the
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

/// Parallel independent per-knob sweep.
///
/// Runs the same test plan as [`crate::search::independent_sweep`], but
/// each test executes on its own [`AbEnvironment::fork`] replica seeded by
/// [`derive_seed`], sharded across the schedule's worker pool. Results are
/// merged into the [`DesignSpaceMap`] in canonical plan order, so the
/// outcome — every verdict, the map, and the composed `best_config` — is
/// bit-identical for any worker count. With one worker this *is* the
/// serial sweep under the derived-seed scheme (the reference the
/// determinism suite compares against).
///
/// # Errors
///
/// Propagates tester/environment errors (deterministically: the failing
/// unit at the lowest plan index wins).
pub fn parallel_independent_sweep(
    tester: &AbTester,
    proto: &mut AbEnvironment,
    baseline: &ServerConfig,
    space: &KnobSpace,
    knobs: &[Knob],
    schedule: Schedule,
) -> Result<SearchOutcome, UskuError> {
    let service = proto.profile().service.name().to_string();
    let plan = plan_independent(baseline, space, knobs, &service, schedule.base_seed);
    warm_baseline(proto, baseline);
    let proto = &*proto;
    let runs = run_replicas(&plan, schedule.workers.get(), |unit: &TestUnit| {
        let mut env = proto.fork(unit.seed);
        let result = tester.run(&mut env, baseline, unit.setting)?;
        let sim_time_s = env.time_s();
        Ok(ReplicaOutput::new(result, sim_time_s))
    })?;
    let mut map = DesignSpaceMap::new();
    for run in runs {
        map.record(run.result);
    }
    let (best_config, selected) = compose(baseline, &map, knobs);
    Ok(SearchOutcome {
        map,
        best_config,
        selected,
    })
}

/// Parallel exhaustive cross-product sweep over a (small) knob subset.
///
/// Same enumeration and budget as [`crate::search::exhaustive_sweep`], with
/// each joint configuration measured on its own forked replica. Joint
/// results land in the map's joint ledger in canonical order; the winner is
/// the earliest-planned maximum gain, so it cannot depend on which worker
/// finished first.
///
/// # Errors
///
/// Propagates tester/environment errors.
pub fn parallel_exhaustive_sweep(
    tester: &AbTester,
    proto: &mut AbEnvironment,
    baseline: &ServerConfig,
    space: &KnobSpace,
    knobs: &[Knob],
    budget: usize,
    schedule: Schedule,
) -> Result<SearchOutcome, UskuError> {
    let service = proto.profile().service.name().to_string();
    let plan = plan_exhaustive(baseline, space, knobs, budget, &service, schedule.base_seed);
    warm_baseline(proto, baseline);
    let proto = &*proto;
    let runs = run_replicas(&plan, schedule.workers.get(), |unit: &JointUnit| {
        let mut env = proto.fork(unit.seed);
        let needs_reboot = unit.config.active_cores != baseline.active_cores
            || unit.config.shp_pages != baseline.shp_pages;
        // detlint::allow(panic_path): plan_exhaustive emits only non-empty
        // joint units; an empty one is a planner bug worth aborting on.
        let label = *unit.settings.last().expect("joint units are non-empty");
        let result = tester.run_config(&mut env, baseline, &unit.config, needs_reboot, label)?;
        let sim_time_s = env.time_s();
        Ok(ReplicaOutput::new(result, sim_time_s))
    })?;
    let mut map = DesignSpaceMap::new();
    for (unit, run) in plan.iter().zip(runs) {
        map.record_joint(unit.settings.clone(), run.result);
    }
    let (best_config, selected) = match map.best_joint() {
        Some((joint, gain)) => {
            let mut config = baseline.clone();
            let mut selected = Vec::with_capacity(joint.settings.len());
            for s in &joint.settings {
                // detlint::allow(panic_path): every planned setting was
                // validated against the same baseline when the plan was built.
                s.apply(&mut config).expect("planned settings are valid");
                selected.push((s.knob(), *s, gain));
            }
            (config, selected)
        }
        None => (baseline.clone(), Vec::new()),
    };
    Ok(SearchOutcome {
        map,
        best_config,
        selected,
    })
}

/// The tuning outcome for one (service, platform) fleet target.
#[derive(Debug)]
pub struct ServiceTuning {
    /// The tuned service.
    pub service: Microservice,
    /// The platform it was tuned on.
    pub platform: PlatformKind,
    /// The sweep outcome (map, best config, selections).
    pub outcome: SearchOutcome,
    /// Simulated machine-seconds consumed across this service's replicas
    /// (the fleet "cost" of the tuning campaign).
    pub sim_time_s: f64,
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
                s.sim_time_s / 3600.0,
                s.wall_s,
                s.outcome.selected.len()
            ));
            for (knob, setting, gain) in &s.outcome.selected {
                out.push_str(&format!(
                    "      {:<16} -> {:<24} ({:+.2}%)\n",
                    knob.to_string(),
                    setting.to_string(),
                    gain * 100.0
                ));
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
/// one global plan and executed by [`run_replicas`] — so a long Web sweep
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
        /// One entry of the flattened fleet-wide plan.
        struct FleetUnit {
            target_idx: usize,
            unit: TestUnit,
        }

        // tune.wall_s telemetry only: reported to ODS for operators, never
        // fed into a simulated result.
        let clock = Stopwatch::start();
        let mut prepared = Vec::with_capacity(targets.len());
        let mut plan: Vec<FleetUnit> = Vec::new();
        for (target_idx, &(service, platform)) in targets.iter().enumerate() {
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
            let units = plan_independent(&baseline, &space, &knobs, service.name(), self.base_seed);
            plan.extend(units.into_iter().map(|unit| FleetUnit { target_idx, unit }));
            prepared.push(Target {
                service,
                platform,
                baseline,
                tester: AbTester::new(self.abtest, PerformanceMetric::recommended_for(service)),
                knobs,
                proto,
            });
        }

        let prepared_ref = &prepared;
        let probe_cpi = sink.is_enabled();
        let runs = run_replicas(&plan, self.workers.get(), |fu: &FleetUnit| {
            let target = &prepared_ref[fu.target_idx];
            let mut env = target.proto.fork(fu.unit.seed);
            let result = target
                .tester
                .run(&mut env, &target.baseline, fu.unit.setting)?;
            // Read sim time before the (read-only) CPI probe so traced and
            // untraced runs report identical numbers.
            let sim_time_s = env.time_s();
            let mut out = ReplicaOutput::new(result, sim_time_s);
            if probe_cpi {
                out.cpi = ArmCpiStacks::capture(&mut env);
            }
            Ok(out)
        })?;

        // Reassemble per target in canonical order and lay down the ODS
        // tuning counters (one point per test, indexed by plan position).
        let mut ods = Ods::unbounded();
        let mut maps: Vec<DesignSpaceMap> =
            (0..prepared.len()).map(|_| DesignSpaceMap::new()).collect();
        let mut sim_time: Vec<f64> = vec![0.0; prepared.len()];
        let mut wall: Vec<f64> = vec![0.0; prepared.len()];
        let mut per_target_idx: Vec<usize> = vec![0; prepared.len()];
        for (fu, run) in plan.iter().zip(&runs) {
            let target = &prepared[fu.target_idx];
            let entity = format!("{}@{}", target.service, target.platform);
            let idx = per_target_idx[fu.target_idx];
            per_target_idx[fu.target_idx] += 1;
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
            sim_time[fu.target_idx] += run.sim_time_s;
            wall[fu.target_idx] += run.wall_s;
            maps[fu.target_idx].record(run.result.clone());
        }

        // Lay down the trace: one campaign span per target on its own
        // track, one child span per test at its cumulative sim-time offset.
        // Plan order groups units by target, so campaigns never interleave.
        if sink.is_enabled() {
            let mut cursor: Vec<f64> = vec![0.0; prepared.len()];
            let mut open: Option<(usize, SpanHandle)> = None;
            for (fu, run) in plan.iter().zip(&runs) {
                if open.map(|(t, _)| t) != Some(fu.target_idx) {
                    if let Some((t, h)) = open.take() {
                        sink.close(h, sim_time[t]);
                    }
                    let target = &prepared[fu.target_idx];
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
                    open = Some((fu.target_idx, h));
                }
                let target = &prepared[fu.target_idx];
                trace_test_span(
                    sink,
                    target.service.name(),
                    &target.platform.to_string(),
                    run,
                    fu.unit.seed,
                    cursor[fu.target_idx],
                    self.abtest.confidence,
                );
                cursor[fu.target_idx] += run.sim_time_s;
            }
            if let Some((t, h)) = open.take() {
                sink.close(h, sim_time[t]);
            }
        }

        let mut services = Vec::with_capacity(prepared.len());
        for (i, target) in prepared.into_iter().enumerate() {
            let map = std::mem::take(&mut maps[i]);
            let (best_config, selected) = compose(&target.baseline, &map, &target.knobs);
            services.push(ServiceTuning {
                service: target.service,
                platform: target.platform,
                outcome: SearchOutcome {
                    map,
                    best_config,
                    selected,
                },
                sim_time_s: sim_time[i],
                wall_s: wall[i],
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
        let plan = plan_independent(&baseline, &space, &knobs, service, 5);
        let replay = plan_independent(&baseline, &space, &knobs, service, 5);
        assert_eq!(plan.len(), replay.len());
        for (a, b) in plan.iter().zip(&replay) {
            assert_eq!(a.setting, b.setting);
            assert_eq!(a.seed, b.seed);
        }
        // The baseline's own settings are the control and never planned.
        for unit in &plan {
            assert_ne!(
                KnobSetting::read_from(unit.setting.knob(), &baseline),
                unit.setting
            );
        }
        // Seeds are pairwise distinct across the plan.
        let mut seeds: Vec<u64> = plan.iter().map(|u| u.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), plan.len());
    }

    #[test]
    fn assignment_plan_is_canonical_and_identity_seeded() {
        let dims = vec![
            ("front".to_string(), vec!["a".to_string(), "b".to_string()]),
            ("cache".to_string(), vec!["x".to_string(), "y".to_string()]),
        ];
        let plan = plan_assignments(9, "demo-graph", &dims);
        assert_eq!(plan.len(), 4);
        // Mixed-radix canonical order, first dimension fastest.
        let choices: Vec<Vec<usize>> = plan.iter().map(|u| u.choice.clone()).collect();
        assert_eq!(
            choices,
            vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]]
        );
        // Seeds replay and depend on identity, not plan position.
        let replay = plan_assignments(9, "demo-graph", &dims);
        assert_eq!(plan, replay);
        let mut seeds: Vec<u64> = plan.iter().map(|u| u.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "assignment seeds are pairwise distinct");
        assert_ne!(
            plan[0].seed,
            plan_assignments(10, "demo-graph", &dims)[0].seed
        );
        assert_ne!(
            plan[0].seed,
            plan_assignments(9, "other-graph", &dims)[0].seed
        );
        assert_eq!(
            plan[1].seed,
            derive_assignment_seed(9, "demo-graph", &[("front", "b"), ("cache", "x")])
        );
        // Degenerate shapes: an empty dimension empties the plan; no
        // dimensions yield the single empty assignment.
        let empty = vec![("front".to_string(), Vec::new())];
        assert!(plan_assignments(9, "demo-graph", &empty).is_empty());
        assert_eq!(plan_assignments(9, "demo-graph", &[]).len(), 1);
    }

    #[test]
    fn exhaustive_plan_matches_serial_budget_semantics() {
        let (_, env, baseline, space) = setup();
        let service = env.profile().service.name();
        let plan = plan_exhaustive(&baseline, &space, &[Knob::Thp], 2, service, 5);
        assert!(plan.len() <= 2);
        for unit in &plan {
            assert_eq!(unit.settings.len(), 1);
            assert_ne!(unit.config, baseline);
        }
    }

    #[test]
    fn parallel_sweep_finds_the_same_winners_as_the_serial_strategy() {
        let (tester, mut env, baseline, space) = setup();
        let out = parallel_independent_sweep(
            &tester,
            &mut env,
            &baseline,
            &space,
            &[Knob::Thp, Knob::Shp],
            Schedule::new(21).with_workers(NonZeroUsize::new(4).unwrap()),
        )
        .unwrap();
        // Same winners the serial independent_sweep test pins down.
        assert_eq!(out.best_config.shp_pages, 300);
        assert_eq!(out.best_config.thp, softsku_archsim::ThpMode::AlwaysOn);
        assert!(out.map.test_count() >= 7);
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
            assert!(s.sim_time_s > 0.0);
            let entity = format!("{}@{}", s.service, s.platform);
            let key = SeriesKey::keyed(&entity, LedgerKey::TuneWallS);
            assert_eq!(fleet.ods.len(&key), s.outcome.map.test_count());
        }
        let rendered = fleet.render();
        assert!(rendered.contains("fleet tuning"));
        assert!(rendered.contains("Web"));
    }
}
