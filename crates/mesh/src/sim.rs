//! Deterministic request-graph simulation: seeded arrivals, per-tier
//! FCFS queues, network legs, and exact end-to-end percentiles.
//!
//! One simulation is a pure function of `(graph, SKUs, MeshConfig)`:
//!
//! 1. **Calibration** — each tier's mean service time comes from the
//!    cluster simulator: the tier's engine is evaluated under its
//!    production configuration and under the candidate SKU, and the MIPS
//!    ratio rescales the tier's per-hop service budget
//!    ([`Tier::base_service_s`](crate::graph::Tier)) — the same
//!    speed-scaling recipe as
//!    [`SimServer::latency_tail`](softsku_cluster::SimServer), applied to
//!    one RPC's worth of compute instead of the service's whole
//!    production request (downstream time is modeled explicitly by the
//!    graph). Colocated tiers are additionally slowed by `1 / retention`
//!    from the engine-coupled pair evaluation, plus a seeded jitter
//!    scaled by the interference they measured.
//! 2. **Forward pass** — requests arrive Poisson at the root; tiers are
//!    processed in topological order, each as a `c`-server FCFS queue
//!    (heap of server-free times). A finished parent fires its outgoing
//!    edges (unless its cache draw short-circuits them), and each fired
//!    edge delivers a child job after half the drawn RTT.
//! 3. **Backward pass** — a request's response at a tier is the max of
//!    its own finish and every fired child's response plus the return
//!    leg; the end-to-end latency is the root response minus arrival.
//!
//! Every random draw flows through an append-only
//! [`StreamFamily`] variant, with per-tier and per-edge sub-streams
//! derived by [`IdentitySeed`] over the element names — so adding a tier
//! never perturbs another tier's draws, and the whole report is
//! bit-identical for a fixed `(graph, SKUs, config)` regardless of who
//! evaluates it.

use crate::error::MeshError;
use crate::graph::ServiceGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::SimServer;
use softsku_telemetry::keys::LedgerKey;
use softsku_telemetry::nearest_rank;
use softsku_telemetry::ods::{Ods, SeriesKey};
use softsku_telemetry::streams::{IdentitySeed, StreamFamily, StreamRegistry};
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_workloads::queuesim::{FcfsServers, ServiceDist};

/// Simulation inputs beyond the graph and the per-tier SKUs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshConfig {
    /// Requests injected at the root.
    pub requests: usize,
    /// Poisson arrival rate at the root, requests/second.
    pub arrival_rate_hz: f64,
    /// Accounting horizon, seconds: requests whose response lands after
    /// it count as in-flight in the conservation ledger. Percentiles are
    /// computed over *all* requests and do not depend on the horizon.
    pub horizon_s: f64,
    /// Engine window per calibration evaluation, instructions.
    pub window_insns: u64,
    /// Squared coefficient of variation of tier service times.
    pub service_cv2: f64,
    /// Fraction of requests hit by the injected tail regression; `0.0`
    /// disables the injection and leaves every draw bit-identical to a
    /// config without it. Fates come from their own seeded stream
    /// ([`StreamFamily::MeshRegression`]), so enabling the injection
    /// never perturbs arrival, service, cache, or RTT draws.
    pub regress_frac: f64,
    /// Service-time multiplier applied at every tier to a regressed
    /// request's jobs; `1.0` is inert.
    pub regress_scale: f64,
    /// Base seed; every stream derives from it through its family mask.
    pub seed: u64,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            requests: 2_000,
            arrival_rate_hz: 900.0,
            horizon_s: f64::INFINITY,
            window_insns: 120_000,
            service_cv2: 2.0,
            regress_frac: 0.0,
            regress_scale: 1.0,
            seed: 42,
        }
    }
}

impl MeshConfig {
    fn validate(&self) -> Result<(), MeshError> {
        if self.requests == 0 {
            return Err(MeshError::Config("requests must be positive".into()));
        }
        if !(self.arrival_rate_hz.is_finite() && self.arrival_rate_hz > 0.0) {
            return Err(MeshError::Config(format!(
                "arrival rate {} must be a positive finite rate",
                self.arrival_rate_hz
            )));
        }
        if self.horizon_s.is_nan() || self.horizon_s <= 0.0 {
            return Err(MeshError::Config(format!(
                "horizon {} must be positive",
                self.horizon_s
            )));
        }
        if !(self.service_cv2.is_finite() && self.service_cv2 >= 0.0) {
            return Err(MeshError::Config(format!(
                "service cv² {} must be nonnegative and finite",
                self.service_cv2
            )));
        }
        if self.window_insns < 10_000 {
            return Err(MeshError::Config(format!(
                "window of {} instructions is too short to calibrate",
                self.window_insns
            )));
        }
        if !(0.0..=1.0).contains(&self.regress_frac) || !self.regress_frac.is_finite() {
            return Err(MeshError::Config(format!(
                "regression fraction {} must be within [0, 1]",
                self.regress_frac
            )));
        }
        if !(self.regress_scale.is_finite() && self.regress_scale >= 1.0) {
            return Err(MeshError::Config(format!(
                "regression scale {} must be a finite slowdown (>= 1)",
                self.regress_scale
            )));
        }
        Ok(())
    }
}

/// Per-tier outcome of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TierStats {
    /// Tier name.
    pub name: String,
    /// Jobs the tier served (one per request that reached it).
    pub jobs: u64,
    /// Jobs finished at or before the horizon.
    pub jobs_done_by_horizon: u64,
    /// Jobs still queued or in service at the horizon.
    pub jobs_pending_at_horizon: u64,
    /// Mean queue wait, seconds.
    pub mean_wait_s: f64,
    /// Mean service time, seconds.
    pub mean_service_s: f64,
    /// Calibrated mean service time the draws were centered on.
    pub calibrated_service_s: f64,
    /// Throughput retention under colocation (1.0 when not colocated).
    pub retention: f64,
    /// Share of the slowest-1 % requests' end-to-end time attributed to
    /// this tier by critical-path walking.
    pub critical_share: f64,
}

/// Result of one request-graph simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshReport {
    /// Graph name.
    pub graph: String,
    /// Requests injected at the root.
    pub injected: u64,
    /// Requests whose end-to-end response landed by the horizon.
    pub completed: u64,
    /// Requests still in flight at the horizon.
    pub in_flight: u64,
    /// Mean end-to-end latency, seconds.
    pub mean_s: f64,
    /// Median end-to-end latency, seconds.
    pub p50_s: f64,
    /// 95th-percentile end-to-end latency, seconds.
    pub p95_s: f64,
    /// 99th-percentile end-to-end latency, seconds (the tuning target).
    pub p99_s: f64,
    /// Share of the slowest-1 % requests' time spent on network legs.
    pub network_critical_share: f64,
    /// Per-tier statistics, in tier declaration order.
    pub tiers: Vec<TierStats>,
}

impl MeshReport {
    /// Records the report into the ODS ledger at sim-time `t`: the
    /// graph-level conservation counters and p99 under the graph entity,
    /// and each tier's critical-path share under the tier entity.
    ///
    /// # Errors
    ///
    /// [`MeshError::Telemetry`] when `t` is not monotone for a series.
    pub fn record(&self, ods: &mut Ods, t: f64) -> Result<(), MeshError> {
        ods.append(
            &SeriesKey::keyed(&self.graph, LedgerKey::MeshCompleted),
            t,
            self.completed as f64,
        )?;
        ods.append(
            &SeriesKey::keyed(&self.graph, LedgerKey::MeshInflight),
            t,
            self.in_flight as f64,
        )?;
        ods.append(
            &SeriesKey::keyed(&self.graph, LedgerKey::MeshP99S),
            t,
            self.p99_s,
        )?;
        for tier in &self.tiers {
            ods.append(
                &SeriesKey::keyed(&tier.name, LedgerKey::MeshTierShare),
                t,
                tier.critical_share,
            )?;
        }
        Ok(())
    }
}

/// One root request's end-to-end observation, in completion order — the
/// ingestion feed for the SLO engine's burn-rate evaluator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSample {
    /// Request index (root arrival order).
    pub req: usize,
    /// Root arrival time, seconds.
    pub start_s: f64,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
    /// Completion time (`start_s + latency_s`), seconds.
    pub finish_s: f64,
    /// Trace span id of the request's root span, when the sink recorded
    /// one — the exemplar hook that lets an SLO alert name the offending
    /// trace subtree.
    pub span_id: Option<u64>,
}

/// One job: a request's visit to one tier.
#[derive(Debug, Clone, Copy)]
struct Job {
    req: usize,
    tier: usize,
    parent: Option<usize>,
    rtt_back_s: f64,
    arrival: f64,
    wait: f64,
    service: f64,
    finish: f64,
}

/// Per-tier calibration: the service-time center and its provenance.
#[derive(Debug, Clone, Copy)]
struct TierCal {
    service_s: f64,
    retention: f64,
}

/// The request-graph simulator: a graph plus a [`MeshConfig`].
#[derive(Debug, Clone)]
pub struct MeshSim<'a> {
    graph: &'a ServiceGraph,
    config: MeshConfig,
}

impl<'a> MeshSim<'a> {
    /// Binds a simulator to a graph and configuration.
    ///
    /// # Errors
    ///
    /// [`MeshError::Config`] for out-of-range configuration values.
    pub fn new(graph: &'a ServiceGraph, config: MeshConfig) -> Result<Self, MeshError> {
        config.validate()?;
        Ok(MeshSim { graph, config })
    }

    /// The bound configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Runs the simulation under the given per-tier SKUs (one
    /// [`ServerConfig`] per tier, declaration order).
    ///
    /// # Errors
    ///
    /// [`MeshError::Config`] when the SKU count mismatches the tier
    /// count; calibration errors otherwise.
    pub fn run(&self, skus: &[ServerConfig]) -> Result<MeshReport, MeshError> {
        self.run_instrumented(skus, &mut TraceSink::disabled())
            .map(|(report, _)| report)
    }

    /// Runs the simulation like [`MeshSim::run`], recording one span per
    /// request and one span per hop into `sink` (post-simulation, in
    /// canonical request/job order, so the trace is bit-identical across
    /// replays), and also returns one [`RequestSample`] per root request,
    /// sorted by completion time (ties broken by request index) — the canonical
    /// monotone ingestion order for
    /// [`SloEvaluator::observe`](softsku_telemetry::SloEvaluator). Each
    /// sample carries the span id of the request's root trace span when
    /// `sink` recorded one, so tail exemplars resolve back into the
    /// Chrome trace export.
    ///
    /// # Errors
    ///
    /// As [`MeshSim::run`].
    pub fn run_instrumented(
        &self,
        skus: &[ServerConfig],
        sink: &mut TraceSink,
    ) -> Result<(MeshReport, Vec<RequestSample>), MeshError> {
        let tiers = self.graph.tiers();
        if skus.len() != tiers.len() {
            return Err(MeshError::Config(format!(
                "{} SKUs supplied for {} tiers",
                skus.len(),
                tiers.len()
            )));
        }
        let cals = self.calibrate(skus)?;
        let jobs = self.forward_pass(&cals)?;
        let (response, critical) = backward_pass(&jobs);
        let report = self.summarize(&jobs, &response, &critical, &cals);
        let n_req = self.config.requests;
        let span_ids = if sink.is_enabled() {
            record_trace(self.graph, &jobs, &response, n_req, sink)
        } else {
            vec![None; n_req]
        };
        let mut samples: Vec<RequestSample> = (0..n_req)
            .map(|r| {
                let start_s = jobs[r].arrival;
                let latency_s = response[r] - start_s;
                RequestSample {
                    req: r,
                    start_s,
                    latency_s,
                    finish_s: start_s + latency_s,
                    span_id: span_ids[r],
                }
            })
            .collect();
        // Completion times are nonnegative finite, so bit order agrees
        // with numeric order; the request index breaks exact ties.
        samples.sort_by_key(|s| (s.finish_s.to_bits(), s.req));
        Ok((report, samples))
    }

    /// Calibrates each tier's mean service time from the cluster
    /// simulator, folding in colocation retention for paired tiers.
    fn calibrate(&self, skus: &[ServerConfig]) -> Result<Vec<TierCal>, MeshError> {
        let tiers = self.graph.tiers();
        // Engine-coupled retention for colocated pairs, under the pair's
        // *candidate* configurations — a bandwidth-hungry SKU on one side
        // of the socket shows up as lost retention on the other.
        let mut retention = vec![1.0f64; tiers.len()];
        if let Some(coloc) = self.graph.colocation() {
            for &(a, b) in &coloc.pairs {
                let outcome = coloc.scenario.evaluate_with(
                    tiers[a].service,
                    tiers[b].service,
                    &skus[a],
                    &skus[b],
                )?;
                retention[a] = outcome.retention_a.clamp(0.05, 1.0);
                retention[b] = outcome.retention_b.clamp(0.05, 1.0);
            }
        }
        let mut cals = Vec::with_capacity(tiers.len());
        for (i, tier) in tiers.iter().enumerate() {
            let (prod_mips, cand_mips) = tier_mips(self.graph, &self.config, i, &skus[i])?;
            let speed = (cand_mips / prod_mips.max(1e-9)).max(1e-3);
            let service_s = tier.base_service_s / speed / retention[i];
            cals.push(TierCal {
                service_s: service_s.max(1e-9),
                retention: retention[i],
            });
        }
        Ok(cals)
    }

    /// The forward pass: Poisson root arrivals, per-tier FCFS queues in
    /// topological order, edge firing with cache short-circuits. Root
    /// arrivals that overflow to infinity are a [`MeshError::Config`].
    fn forward_pass(&self, cals: &[TierCal]) -> Result<Vec<Job>, MeshError> {
        let graph = self.graph;
        let tiers = graph.tiers();
        let cfg = &self.config;
        let mut streams = StreamRegistry::new(cfg.seed);

        let mut arrival_rng = SmallRng::seed_from_u64(streams.derive(StreamFamily::MeshArrivals));
        let service_base = streams.derive(StreamFamily::MeshService);
        let cache_base = streams.derive(StreamFamily::MeshCacheHit);
        let rtt_base = streams.derive(StreamFamily::MeshRtt);
        let jitter_base = streams.derive(StreamFamily::MeshInterference);
        let regress_seed = streams.derive(StreamFamily::MeshRegression);
        let tier_stream = |base: u64, name: &str| {
            SmallRng::seed_from_u64(IdentitySeed::new(base).field(name).finish())
        };

        // Injected tail-regression fates, one per request in arrival
        // order, from their own stream — drawing them (or not) never
        // moves any other stream's position, so a disabled injection is
        // bit-identical to a build without the feature.
        let slowed: Vec<bool> = if cfg.regress_frac > 0.0 && cfg.regress_scale > 1.0 {
            let mut rng = SmallRng::seed_from_u64(regress_seed);
            (0..cfg.requests)
                .map(|_| rng.gen_range(0.0..1.0) < cfg.regress_frac)
                .collect()
        } else {
            vec![false; cfg.requests]
        };

        let mut jobs: Vec<Job> = Vec::with_capacity(cfg.requests * tiers.len());
        // Each tier's jobs as FCFS keys `(arrival bits, request, job)`.
        // All times are nonnegative finite, so the bit ordering of f64
        // agrees with the numeric ordering, and the job index is unique.
        let mut by_tier: Vec<Vec<(u64, usize, usize)>> = vec![Vec::new(); tiers.len()];

        // Root arrivals, in request order.
        let mut t = 0.0f64;
        for req in 0..cfg.requests {
            let u: f64 = arrival_rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / cfg.arrival_rate_hz;
            by_tier[0].push((t.to_bits(), req, jobs.len()));
            jobs.push(Job {
                req,
                tier: 0,
                parent: None,
                rtt_back_s: 0.0,
                arrival: t,
                wait: 0.0,
                service: 0.0,
                finish: 0.0,
            });
        }
        if !t.is_finite() {
            let msg = format!("arrival rate {} Hz overflows time", cfg.arrival_rate_hz);
            return Err(MeshError::Config(msg));
        }

        for &tier_idx in graph.topo_order() {
            let tier = &tiers[tier_idx];
            let cal = cals[tier_idx];
            let mut service_rng = tier_stream(service_base, &tier.name);
            let mut cache_rng = tier_stream(cache_base, &tier.name);
            let mut jitter_rng = tier_stream(jitter_base, &tier.name);
            let out_edges = graph.edges_from(tier_idx);
            let mut edge_rngs: Vec<SmallRng> = out_edges
                .iter()
                .map(|&e| {
                    let edge = graph.edges()[e];
                    SmallRng::seed_from_u64(
                        IdentitySeed::new(rtt_base)
                            .field(&tiers[edge.from].name)
                            .field(&tiers[edge.to].name)
                            .finish(),
                    )
                })
                .collect();

            // FCFS: serve jobs in (arrival, request, creation) order. Only
            // upstream tiers feed this one, so its key list is complete.
            let mut order = std::mem::take(&mut by_tier[tier_idx]);
            order.sort_unstable();
            let mut servers = FcfsServers::new(tier.concurrency);
            let service_dist = ServiceDist::LogNormal {
                mean: cal.service_s,
                cv2: cfg.service_cv2,
            };
            for &(_, req, j) in &order {
                // The service draw never depends on the start time, so it
                // is drawn before the job is admitted.
                let mut service = service_dist.sample(&mut service_rng);
                if cal.retention < 1.0 {
                    // Interference jitter: neighbors on the shared socket
                    // occasionally stall this tier, in proportion to the
                    // throughput the pair measurement says it loses.
                    let e: f64 = jitter_rng.gen_range(f64::EPSILON..1.0);
                    service *= 1.0 + (1.0 - cal.retention) * (-e.ln());
                }
                if slowed[req] {
                    service *= cfg.regress_scale;
                }
                let start = servers.admit(jobs[j].arrival, service);
                let finish = start + service;
                jobs[j].wait = start - jobs[j].arrival;
                jobs[j].service = service;
                jobs[j].finish = finish;

                // Cache short-circuit: on a hit, downstream edges stay
                // silent for this request.
                let hit = tier.hit_rate > 0.0 && cache_rng.gen_range(0.0..1.0) < tier.hit_rate;
                if hit {
                    continue;
                }
                for (k, &e) in out_edges.iter().enumerate() {
                    let edge = graph.edges()[e];
                    let u: f64 = edge_rngs[k].gen_range(f64::EPSILON..1.0);
                    let rtt = -edge.rtt_s * u.ln();
                    let child_arrival = finish + rtt / 2.0;
                    by_tier[edge.to].push((child_arrival.to_bits(), req, jobs.len()));
                    jobs.push(Job {
                        req,
                        tier: edge.to,
                        parent: Some(j),
                        rtt_back_s: rtt / 2.0,
                        arrival: child_arrival,
                        wait: 0.0,
                        service: 0.0,
                        finish: 0.0,
                    });
                }
            }
        }
        Ok(jobs)
    }

    /// Builds the report: exact percentiles from the full latency
    /// reservoir, conservation counters against the horizon, and
    /// critical-path attribution over the slowest 1 %.
    fn summarize(
        &self,
        jobs: &[Job],
        response: &[f64],
        critical: &[usize],
        cals: &[TierCal],
    ) -> MeshReport {
        let tiers = self.graph.tiers();
        let horizon = self.config.horizon_s;
        let n_req = self.config.requests;

        // Root jobs are the first `n_req` jobs, in request order.
        let mut latencies: Vec<f64> = (0..n_req).map(|r| response[r] - jobs[r].arrival).collect();
        let mut order: Vec<usize> = (0..n_req).collect();
        order.sort_by_key(|&r| (latencies[r].to_bits(), r));
        latencies.sort_by(f64::total_cmp);
        // `requests > 0` is validated, so every rank exists.
        let pick = |q: f64| nearest_rank(&latencies, q).unwrap_or(f64::NAN);
        let mean_s = latencies.iter().sum::<f64>() / n_req as f64;

        let completed = (0..n_req).filter(|&r| response[r] <= horizon).count() as u64;

        // Critical-path attribution over the slowest 1 % (at least one
        // request): walk the argmax chain from the root, charging each
        // chain tier its local sojourn and the network both legs. The
        // cutoff is rank-exact: the set starts at the nearest-rank p99
        // boundary (the same formula as `pick`) and keeps every request
        // tied with the boundary latency, instead of slicing a fixed
        // count that drops ties arbitrarily.
        let slowest = &order[tail_start(&latencies, 0.99)..];
        let mut tier_time = vec![0.0f64; tiers.len()];
        let mut net_time = 0.0f64;
        for &root in slowest {
            let mut j = root;
            loop {
                tier_time[jobs[j].tier] += jobs[j].finish - jobs[j].arrival;
                let c = critical[j];
                if c == NO_CHILD {
                    break;
                }
                net_time += 2.0 * jobs[c].rtt_back_s;
                j = c;
            }
        }
        let total_attr = (tier_time.iter().sum::<f64>() + net_time).max(1e-12);

        // Per-tier (jobs, done, wait sum, service sum) in job order; sums
        // start at -0.0 like `Iterator::sum`, so empty tiers stay -0.0.
        let mut acc = vec![(0u64, 0u64, -0.0f64, -0.0f64); tiers.len()];
        for job in jobs {
            let a = &mut acc[job.tier];
            a.0 += 1;
            a.1 += u64::from(job.finish <= horizon);
            a.2 += job.wait;
            a.3 += job.service;
        }
        let tier_stats: Vec<TierStats> = tiers
            .iter()
            .zip(acc)
            .enumerate()
            .map(|(i, (tier, (jobs_n, done, wait, service)))| {
                let inv = 1.0 / (jobs_n as f64).max(1.0);
                TierStats {
                    name: tier.name.clone(),
                    jobs: jobs_n,
                    jobs_done_by_horizon: done,
                    jobs_pending_at_horizon: jobs_n - done,
                    mean_wait_s: wait * inv,
                    mean_service_s: service * inv,
                    calibrated_service_s: cals[i].service_s,
                    retention: cals[i].retention,
                    critical_share: tier_time[i] / total_attr,
                }
            })
            .collect();

        MeshReport {
            graph: self.graph.name().to_string(),
            injected: n_req as u64,
            completed,
            in_flight: n_req as u64 - completed,
            mean_s,
            p50_s: pick(0.50),
            p95_s: pick(0.95),
            p99_s: pick(0.99),
            network_critical_share: net_time / total_attr,
            tiers: tier_stats,
        }
    }
}

/// Solo MIPS of a tier at peak load under production and under `sku`:
/// the one place a tier's server is built. Calibration takes the ratio;
/// the paper's per-service rule (SoftSKU Sec. 4) ranks by the second.
pub(crate) fn tier_mips(
    graph: &ServiceGraph,
    config: &MeshConfig,
    tier: usize,
    sku: &ServerConfig,
) -> Result<(f64, f64), MeshError> {
    let tier = &graph.tiers()[tier];
    let profile = tier.service.profile(tier.service.default_platform())?;
    let seed = IdentitySeed::new(config.seed)
        .field(graph.name())
        .field(&tier.name)
        .finish();
    let mut server = SimServer::with_window(
        profile.clone(),
        profile.production_config.clone(),
        seed,
        config.window_insns,
    )?;
    let prod_mips = server.mips(1.0)?;
    server.reconfigure(sku.clone(), false)?;
    Ok((prod_mips, server.mips(1.0)?))
}

/// Start index, into a latency-sorted order, of the slow-tail
/// attribution set for quantile `q`: the [`nearest_rank`] boundary (the
/// same one the percentiles use), widened left to include every value
/// tied with the boundary.
fn tail_start(sorted_latencies: &[f64], q: f64) -> usize {
    match nearest_rank(sorted_latencies, q) {
        Some(cut) => sorted_latencies.partition_point(|&l| l < cut),
        None => 0,
    }
}

/// Critical child of a job no child beat; job 0 is a root, never a child.
const NO_CHILD: usize = 0;

/// The backward response pass: `response[j]` is `finish[j]` joined with
/// every child's response plus its return leg. Children always have
/// higher indices than their parents (jobs are created parent-first), so
/// one reverse sweep suffices. `critical[j]` is the *first* child, in
/// creation order, to strictly beat the running best from `finish[j]`;
/// the sweep meets siblings last-first, so a tie with an already-chosen
/// sibling moves the pick earlier, and a tie with the finish never picks.
fn backward_pass(jobs: &[Job]) -> (Vec<f64>, Vec<usize>) {
    let mut response: Vec<f64> = jobs.iter().map(|j| j.finish).collect();
    let mut critical = vec![NO_CHILD; jobs.len()];
    for j in (0..jobs.len()).rev() {
        if let Some(p) = jobs[j].parent {
            let via = response[j] + jobs[j].rtt_back_s;
            if via > response[p] || (via == response[p] && critical[p] != NO_CHILD) {
                response[p] = via;
                critical[p] = j;
            }
        }
    }
    (response, critical)
}

/// Records the trace: one span per request on the `requests` track, one
/// span per hop on the `hops` track, in canonical order (requests by
/// index, hops by job creation order). Returns the span id recorded for
/// each root request (`None` when sampling dropped its span).
fn record_trace(
    graph: &ServiceGraph,
    jobs: &[Job],
    response: &[f64],
    n_req: usize,
    sink: &mut TraceSink,
) -> Vec<Option<u64>> {
    let req_track = sink.track("requests");
    sink.set_track(req_track);
    let mut req_ids: Vec<Option<u64>> = vec![None; n_req];
    for r in 0..n_req {
        let before = sink.spans().len();
        let h = sink.leaf(
            LedgerKey::MeshRequest.name(),
            &format!("r{r}"),
            jobs[r].arrival,
            response[r] - jobs[r].arrival,
        );
        if sink.spans().len() > before {
            req_ids[r] = sink.spans().last().map(|s| s.id);
        }
        sink.attr(
            h,
            "latency_s",
            AttrValue::F64(response[r] - jobs[r].arrival),
        );
    }
    let hop_track = sink.track("hops");
    sink.set_track(hop_track);
    for (j, job) in jobs.iter().enumerate() {
        let h = sink.leaf(
            LedgerKey::MeshHop.name(),
            &graph.tiers()[job.tier].name,
            job.arrival,
            response[j] - job.arrival,
        );
        sink.attr(h, "req", AttrValue::Int(job.req as i64));
        sink.attr(h, "wait_s", AttrValue::F64(job.wait));
        sink.attr(h, "service_s", AttrValue::F64(job.service));
    }
    req_ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{colocation_mix, media, social_network};
    use softsku_workloads::Microservice;

    fn small_config() -> MeshConfig {
        MeshConfig {
            requests: 400,
            arrival_rate_hz: 900.0,
            horizon_s: f64::INFINITY,
            window_insns: 60_000,
            service_cv2: 2.0,
            regress_frac: 0.0,
            regress_scale: 1.0,
            seed: 11,
        }
    }

    fn production_skus(graph: &ServiceGraph) -> Vec<ServerConfig> {
        graph
            .tiers()
            .iter()
            .map(|t| {
                t.service
                    .production_config(t.service.default_platform())
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn replay_is_bit_identical_and_percentiles_ordered() {
        let graph = social_network().unwrap();
        let skus = production_skus(&graph);
        let sim = MeshSim::new(&graph, small_config()).unwrap();
        let a = sim.run(&skus).unwrap();
        let b = sim.run(&skus).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.p50_s <= a.p95_s && a.p95_s <= a.p99_s);
        assert!(a.p99_s.is_finite() && a.p99_s > 0.0);
        assert_eq!(a.injected, 400);
        assert_eq!(a.completed, 400, "infinite horizon completes everything");
    }

    #[test]
    fn conservation_holds_at_a_finite_horizon() {
        let graph = social_network().unwrap();
        let skus = production_skus(&graph);
        let mut cfg = small_config();
        // Horizon in the middle of the arrival span.
        cfg.horizon_s = cfg.requests as f64 / cfg.arrival_rate_hz * 0.5;
        let report = MeshSim::new(&graph, cfg).unwrap().run(&skus).unwrap();
        assert_eq!(report.injected, report.completed + report.in_flight);
        assert!(
            report.in_flight > 0,
            "mid-span horizon leaves work in flight"
        );
        for tier in &report.tiers {
            assert_eq!(
                tier.jobs,
                tier.jobs_done_by_horizon + tier.jobs_pending_at_horizon,
                "{}",
                tier.name
            );
        }
    }

    #[test]
    fn cache_hits_shield_the_backing_store() {
        let graph = social_network().unwrap();
        let skus = production_skus(&graph);
        let report = MeshSim::new(&graph, small_config())
            .unwrap()
            .run(&skus)
            .unwrap();
        let cache = report.tiers.iter().find(|t| t.name == "cache").unwrap();
        let store = report.tiers.iter().find(|t| t.name == "store").unwrap();
        // Two aggregators funnel into the cache; the 85 % hit rate must
        // keep the store's job count well under the cache's.
        assert!(cache.jobs > report.injected);
        let miss = store.jobs as f64 / cache.jobs as f64;
        assert!(
            (miss - 0.15).abs() < 0.05,
            "store sees ~15% of cache lookups, got {miss}"
        );
    }

    #[test]
    fn serial_chain_latency_is_additive() {
        let graph = media().unwrap();
        let skus = production_skus(&graph);
        let report = MeshSim::new(&graph, small_config())
            .unwrap()
            .run(&skus)
            .unwrap();
        // Every request traverses edge+encoder at minimum; the mean must
        // exceed the two calibrated service centers combined.
        let floor: f64 = report
            .tiers
            .iter()
            .take(2)
            .map(|t| t.calibrated_service_s)
            .sum();
        assert!(
            report.mean_s > floor,
            "mean {} vs serial floor {}",
            report.mean_s,
            floor
        );
    }

    #[test]
    fn colocation_inflates_service_times() {
        let graph = colocation_mix().unwrap();
        let skus = production_skus(&graph);
        let mut cfg = small_config();
        cfg.window_insns = 60_000;
        let report = MeshSim::new(&graph, cfg).unwrap().run(&skus).unwrap();
        for tier in &report.tiers {
            assert!(
                tier.retention < 1.0,
                "{} shares a socket, retention {}",
                tier.name,
                tier.retention
            );
        }
    }

    #[test]
    fn trace_records_requests_and_hops_and_ledger_accepts_report() {
        let graph = media().unwrap();
        let skus = production_skus(&graph);
        let mut cfg = small_config();
        cfg.requests = 50;
        let sim = MeshSim::new(&graph, cfg).unwrap();
        let mut sink = TraceSink::new();
        let report = sim.run_instrumented(&skus, &mut sink).unwrap().0;
        let req_spans = sink
            .spans()
            .iter()
            .filter(|s| s.cat == LedgerKey::MeshRequest.name())
            .count();
        assert_eq!(req_spans as u64, report.injected);
        let hop_spans = sink
            .spans()
            .iter()
            .filter(|s| s.cat == LedgerKey::MeshHop.name())
            .count();
        let total_jobs: u64 = report.tiers.iter().map(|t| t.jobs).sum();
        assert_eq!(hop_spans as u64, total_jobs);
        assert!(sink.chrome_trace().render().contains("traceEvents"));

        let mut ods = Ods::unbounded();
        report.record(&mut ods, 0.0).unwrap();
        let _ = Microservice::Web;
    }

    #[test]
    fn tail_cutoff_is_rank_exact_and_keeps_boundary_ties() {
        // Distinct latencies: nearest-rank p99 of n=400 is rank 396, so
        // the tail holds the boundary value plus everything above it.
        let distinct: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail_start(&distinct, 0.99), 395);
        // All-tied reservoir: the boundary value is the only value, so
        // the whole population is the tail — nothing is dropped.
        let tied = vec![7.0; 100];
        assert_eq!(tail_start(&tied, 0.99), 0);
        // Ties straddling the cutoff: ten 9.0s at the top of 100 samples.
        // Nearest-rank p99 is rank 99 (a 9.0); every tied 9.0 belongs to
        // the tail, where a fixed `n/100` slice would keep exactly one.
        let mut mixed = vec![1.0; 90];
        mixed.extend(std::iter::repeat_n(9.0, 10));
        assert_eq!(tail_start(&mixed, 0.99), 90);
        // Tiny population: rank clamps to [1, n], tail is the only value.
        assert_eq!(tail_start(&[3.5], 0.99), 0);
    }

    #[test]
    fn critical_path_shares_conserve() {
        let graph = colocation_mix().unwrap();
        let skus = production_skus(&graph);
        let report = MeshSim::new(&graph, small_config())
            .unwrap()
            .run(&skus)
            .unwrap();
        let total: f64 = report.tiers.iter().map(|t| t.critical_share).sum::<f64>()
            + report.network_critical_share;
        assert!(
            (total - 1.0).abs() < 1e-9,
            "attribution must conserve: shares sum to {total}"
        );
        assert!(report.tiers.iter().all(|t| t.critical_share >= 0.0));
    }

    #[test]
    fn disabled_regression_is_bitwise_inert_and_enabled_inflates_the_tail() {
        let graph = media().unwrap();
        let skus = production_skus(&graph);
        let base = MeshSim::new(&graph, small_config())
            .unwrap()
            .run(&skus)
            .unwrap();
        // frac = 0 disables the injection even with a large scale.
        let mut off = small_config();
        off.regress_scale = 5.0;
        let off_report = MeshSim::new(&graph, off).unwrap().run(&skus).unwrap();
        assert_eq!(format!("{base:?}"), format!("{off_report:?}"));
        // A seeded 5 % / 4x injection must push the p99 out.
        let mut on = small_config();
        on.regress_frac = 0.05;
        on.regress_scale = 4.0;
        let on_report = MeshSim::new(&graph, on).unwrap().run(&skus).unwrap();
        assert!(
            on_report.p99_s > base.p99_s * 1.2,
            "injected tail: p99 {} vs baseline {}",
            on_report.p99_s,
            base.p99_s
        );
    }

    #[test]
    fn instrumented_run_yields_monotone_samples_with_span_ids() {
        let graph = media().unwrap();
        let skus = production_skus(&graph);
        let mut cfg = small_config();
        cfg.requests = 60;
        let sim = MeshSim::new(&graph, cfg).unwrap();
        let mut sink = TraceSink::new();
        let (report, samples) = sim.run_instrumented(&skus, &mut sink).unwrap();
        assert_eq!(samples.len() as u64, report.injected);
        for pair in samples.windows(2) {
            assert!(pair[0].finish_s <= pair[1].finish_s, "completion order");
        }
        // Every sample resolves to its root request span in the trace.
        for s in &samples {
            let id = s.span_id.expect("unsampled sink records every span");
            let span = sink.spans().iter().find(|sp| sp.id == id).unwrap();
            assert_eq!(span.name, format!("r{}", s.req));
            assert!((span.dur_s - s.latency_s).abs() < 1e-12);
        }
    }

    /// The reference critical-child rule: scan each job's children in
    /// creation order and keep the first whose response plus return leg
    /// strictly beats the running best, starting from the job's finish.
    fn children_scan(jobs: &[Job], response: &[f64]) -> Vec<usize> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); jobs.len()];
        for (j, job) in jobs.iter().enumerate() {
            if let Some(p) = job.parent {
                children[p].push(j);
            }
        }
        (0..jobs.len())
            .map(|j| {
                let mut next = NO_CHILD;
                let mut best = jobs[j].finish;
                for &c in &children[j] {
                    let via = response[c] + jobs[c].rtt_back_s;
                    if via > best {
                        best = via;
                        next = c;
                    }
                }
                next
            })
            .collect()
    }

    #[test]
    fn backward_pass_critical_child_matches_the_children_scan_on_ties() {
        let job = |req: usize, parent: Option<usize>, rtt_back_s: f64, finish: f64| Job {
            req,
            tier: usize::from(parent.is_some()),
            parent,
            rtt_back_s,
            arrival: 0.0,
            wait: 0.0,
            service: finish,
            finish,
        };
        let jobs = [
            job(0, None, 0.0, 3.0),
            job(1, None, 0.0, 4.0),
            job(2, None, 0.0, 1.0),
            // Two siblings of job 0 with equal `via` (5.0): the first wins.
            job(0, Some(0), 0.5, 4.5),
            job(0, Some(0), 1.0, 4.0),
            // A child of job 1 whose `via` equals job 1's own finish.
            job(1, Some(1), 0.5, 3.5),
            job(1, Some(1), 0.25, 3.0),
            // Job 2's first child wins through its own child; the later
            // equal pair (3.5) loses to it.
            job(2, Some(2), 0.5, 2.0),
            job(2, Some(2), 0.5, 3.0),
            job(2, Some(2), 0.5, 3.0),
            job(2, Some(7), 0.5, 3.0),
        ];
        let (response, critical) = backward_pass(&jobs);
        assert_eq!(critical, children_scan(&jobs, &response));
        assert_eq!(critical[0], 3, "equal siblings keep the first");
        assert_eq!(critical[1], NO_CHILD, "a tie with the finish is no child");
        assert_eq!(critical[2], 7);
        assert_eq!(critical[7], 10);
        assert_eq!(response[0], 5.0);
        assert_eq!(response[1], 4.0);
        assert_eq!(response[2], 4.0);

        // And on a simulated job table.
        let graph = social_network().unwrap();
        let sim = MeshSim::new(&graph, small_config()).unwrap();
        let cals = sim.calibrate(&production_skus(&graph)).unwrap();
        let jobs = sim.forward_pass(&cals).unwrap();
        let (response, critical) = backward_pass(&jobs);
        assert_eq!(critical, children_scan(&jobs, &response));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let graph = media().unwrap();
        let mut cfg = small_config();
        cfg.requests = 0;
        assert!(MeshSim::new(&graph, cfg).is_err());
        let sim = MeshSim::new(&graph, small_config()).unwrap();
        assert!(sim.run(&[]).is_err(), "SKU count must match tier count");
    }
}
