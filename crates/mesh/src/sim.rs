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
//!    [`SimServer::latency`](softsku_cluster::SimServer), applied to
//!    one RPC's worth of compute instead of the service's whole
//!    production request (downstream time is modeled explicitly by the
//!    graph). Colocated tiers are additionally slowed by `1 / retention`
//!    from the engine-coupled pair evaluation, plus a seeded jitter
//!    scaled by the interference they measured.
//! 2. **Forward pass** — requests arrive Poisson at the root; tiers are
//!    processed in topological order, each as a `c`-server FCFS queue
//!    (heap of server-free times). A finished parent fires its outgoing
//!    edges (unless its cache draw short-circuits them), and each fired
//!    edge delivers a child job after half the drawn RTT. Each tier's
//!    step is one tier segment (`segment.rs`), which assignments with the
//!    same upstream calibrations can share.
//! 3. **Backward pass** — a request's response at a tier is the max of
//!    its own finish and every fired child's response plus the return
//!    leg; the end-to-end latency is the root response minus arrival.
//!
//! Every random draw flows through an append-only
//! [`StreamFamily`](softsku_telemetry::streams::StreamFamily) variant,
//! with per-tier and per-edge sub-streams derived by [`IdentitySeed`]
//! over the element names — so adding a tier never perturbs another
//! tier's draws, and the whole report is bit-identical for a fixed
//! `(graph, SKUs, config)` regardless of who evaluates it.

use crate::error::MeshError;
use crate::graph::ServiceGraph;
use crate::segment::{wire, Forward, SegmentTable, TierWiring, NO_CHILD};
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::SimServer;
use softsku_telemetry::keys::LedgerKey;
use softsku_telemetry::ods::{Ods, SeriesKey};
use softsku_telemetry::streams::IdentitySeed;
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::{nearest_rank, select_nearest_rank};
use std::fmt::Write;

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
    /// Fraction of requests hit by the injected tail regression; `0.0`
    /// disables the injection and leaves every draw bit-identical to a
    /// config without it. Fates come from their own seeded stream
    /// ([`MeshRegression`](softsku_telemetry::streams::StreamFamily::MeshRegression)),
    /// so enabling the injection never perturbs arrival, service, cache,
    /// or RTT draws.
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

/// Per-tier calibration: the service-time center and its provenance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TierCal {
    pub(crate) service_s: f64,
    pub(crate) retention: f64,
}

/// The request-graph simulator: a graph plus a [`MeshConfig`].
#[derive(Debug, Clone)]
pub struct MeshSim<'a> {
    graph: &'a ServiceGraph,
    config: MeshConfig,
    wiring: Vec<TierWiring>,
}

impl<'a> MeshSim<'a> {
    /// Binds a simulator to a graph and configuration.
    ///
    /// # Errors
    ///
    /// [`MeshError::Config`] for out-of-range configuration values,
    /// including more requests than a `u32` job index can cover on this
    /// graph.
    pub fn new(graph: &'a ServiceGraph, config: MeshConfig) -> Result<Self, MeshError> {
        config.validate()?;
        let wiring = wire(graph, config.requests)?;
        Ok(MeshSim {
            graph,
            config,
            wiring,
        })
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
        self.run_instrumented_in(skus, sink, &self.segment_table()?)
    }

    /// An empty segment table for this simulator's (validated)
    /// configuration.
    pub(crate) fn segment_table(&self) -> Result<SegmentTable, MeshError> {
        SegmentTable::new(&self.config, self.graph, &self.wiring)
    }

    /// [`MeshSim::run_instrumented`] through `table`, one of this
    /// simulator's [`MeshSim::segment_table`]s: the tiers whose cone of
    /// calibrations the table has already seen reuse its segments.
    pub(crate) fn run_instrumented_in(
        &self,
        skus: &[ServerConfig],
        sink: &mut TraceSink,
        table: &SegmentTable,
    ) -> Result<(MeshReport, Vec<RequestSample>), MeshError> {
        let cals = self.calibrate(skus)?;
        let (fwd, response, report) = self.run_calibrated(&cals, table);
        let arrival = &fwd.roots.arrival;
        let span_ids = if sink.is_enabled() {
            record_trace(self.graph, &fwd, &response, sink)
        } else {
            vec![None; arrival.len()]
        };
        let mut samples: Vec<RequestSample> = arrival
            .iter()
            .enumerate()
            .map(|(r, &start_s)| {
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

    /// Runs one calibrated assignment against a segment table shared with
    /// other assignments of the same `(graph, config)`: the tiers whose
    /// cone of calibrations the table has already seen reuse its segments.
    pub(crate) fn run_shared(&self, cals: &[TierCal], table: &SegmentTable) -> MeshReport {
        self.run_calibrated(cals, table).2
    }

    /// The end-to-end p99 [`MeshSim::run_shared`] would report, bit for
    /// bit, without the report: forward, finish and backward passes, then
    /// one O(n) nearest-rank selection — no sort, attribution or tier
    /// stats. The graph-p99 tuner's score.
    pub(crate) fn p99_shared(&self, cals: &[TierCal], table: &SegmentTable) -> f64 {
        let fwd = self.forward(cals, table);
        let (response, _) = fwd.backward(fwd.finish());
        // Latencies are nonnegative, so `total_cmp` order is the bit order
        // the report's sort uses.
        let mut latencies: Vec<f64> = fwd
            .roots
            .arrival
            .iter()
            .zip(&response)
            .map(|(&a, &r)| r - a)
            .collect();
        select_nearest_rank(&mut latencies, 0.99).unwrap_or(f64::NAN)
    }

    /// Keeps only the segments of `assignments` in `table`.
    pub(crate) fn retain_segments(&self, table: &SegmentTable, assignments: &[&[TierCal]]) {
        table.keep_only(&self.wiring, assignments);
    }

    /// The forward pass of one calibrated assignment through `table`.
    fn forward<'t>(&'t self, cals: &[TierCal], table: &'t SegmentTable) -> Forward<'t> {
        debug_assert_eq!(
            table.config(),
            &self.config,
            "a segment table serves only the configuration it was drawn for"
        );
        table.forward(self.graph, &self.wiring, cals)
    }

    /// The forward pass through `table`, the backward pass, and the
    /// report; also returns the forward pass and every job's response for
    /// the trace and the request samples.
    fn run_calibrated<'t>(
        &'t self,
        cals: &[TierCal],
        table: &'t SegmentTable,
    ) -> (Forward<'t>, Vec<f64>, MeshReport) {
        let fwd = self.forward(cals, table);
        let finish = fwd.finish();
        let (response, critical) = fwd.backward(finish.clone());
        let report = self.summarize(&fwd, &finish, &response, &critical, cals);
        (fwd, response, report)
    }

    /// Calibrates each tier's mean service time from the cluster
    /// simulator, folding in colocation retention for paired tiers.
    pub(crate) fn calibrate(&self, skus: &[ServerConfig]) -> Result<Vec<TierCal>, MeshError> {
        let tiers = self.graph.tiers();
        if skus.len() != tiers.len() {
            return Err(MeshError::Config(format!(
                "{} SKUs supplied for {} tiers",
                skus.len(),
                tiers.len()
            )));
        }
        self.calibrate_with(
            |t| tier_mips(self.graph, &self.config, t, &skus[t]),
            |_, (a, b)| pair_retention(self.graph, (a, b), (&skus[a], &skus[b])),
        )
    }

    /// Calibrates from measurements: `mips(t)` is tier `t`'s
    /// [`tier_mips`] and `pair(p, (a, b))` the [`pair_retention`] of
    /// colocated pair `p`, both under the assignment's SKUs.
    pub(crate) fn calibrate_with(
        &self,
        mips: impl Fn(usize) -> Result<(f64, f64), MeshError>,
        pair: impl Fn(usize, (usize, usize)) -> Result<(f64, f64), MeshError>,
    ) -> Result<Vec<TierCal>, MeshError> {
        let tiers = self.graph.tiers();
        let mut retention = vec![1.0f64; tiers.len()];
        if let Some(coloc) = self.graph.colocation() {
            for (p, &(a, b)) in coloc.pairs.iter().enumerate() {
                let (ra, rb) = pair(p, (a, b))?;
                retention[a] = ra.clamp(0.05, 1.0);
                retention[b] = rb.clamp(0.05, 1.0);
            }
        }
        let mut cals = Vec::with_capacity(tiers.len());
        for (i, tier) in tiers.iter().enumerate() {
            let (prod_mips, cand_mips) = mips(i)?;
            let speed = (cand_mips / prod_mips.max(1e-9)).max(1e-3);
            let service_s = tier.base_service_s / speed / retention[i];
            cals.push(TierCal {
                service_s: service_s.max(1e-9),
                retention: retention[i],
            });
        }
        Ok(cals)
    }

    /// Builds the report: exact percentiles from the full latency
    /// reservoir, conservation counters against the horizon, and
    /// critical-path attribution over the slowest 1 %.
    fn summarize(
        &self,
        fwd: &Forward<'_>,
        finish: &[f64],
        response: &[f64],
        critical: &[u32],
        cals: &[TierCal],
    ) -> MeshReport {
        let tiers = self.graph.tiers();
        let horizon = self.config.horizon_s;
        let n_req = self.config.requests;

        // Root jobs are the first `n_req` jobs, in request order.
        let arrival = &fwd.roots.arrival;
        // Latencies are nonnegative (a response never precedes its
        // arrival), so bit order is numeric order and equal latencies have
        // equal bits: one sort by `(bits, request)` yields both the sorted
        // reservoir and the slowest requests.
        let mut order: Vec<(u64, u32)> = (0..n_req)
            .map(|r| ((response[r] - arrival[r]).to_bits(), r as u32))
            .collect();
        order.sort_unstable();
        let latencies: Vec<f64> = order.iter().map(|&(l, _)| f64::from_bits(l)).collect();
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
        for &(_, root) in slowest {
            let mut j = root as usize;
            loop {
                let job = fwd.job(j);
                tier_time[job.tier] += finish[j] - job.arrival;
                let c = critical[j];
                if c == NO_CHILD {
                    break;
                }
                j = c as usize;
                net_time += 2.0 * fwd.job(j).rtt_back_s;
            }
        }
        let total_attr = (tier_time.iter().sum::<f64>() + net_time).max(1e-12);

        let tier_stats: Vec<TierStats> = tiers
            .iter()
            .enumerate()
            .map(|(i, tier)| {
                let sums = fwd.sums(i);
                let inv = 1.0 / (sums.jobs as f64).max(1.0);
                TierStats {
                    name: tier.name.clone(),
                    jobs: sums.jobs,
                    jobs_done_by_horizon: sums.done,
                    jobs_pending_at_horizon: sums.jobs - sums.done,
                    mean_wait_s: sums.wait_s * inv,
                    mean_service_s: sums.service_s * inv,
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
    let prod_mips = server.peak_mips()?;
    server.reconfigure(sku.clone(), false)?;
    Ok((prod_mips, server.peak_mips()?))
}

/// Engine-coupled throughput retention of the colocated tiers `(a, b)`
/// under their candidate SKUs — a bandwidth-hungry SKU on one side of the
/// socket shows up as lost retention on the other. `(1.0, 1.0)` when the
/// graph has no colocation.
pub(crate) fn pair_retention(
    graph: &ServiceGraph,
    (a, b): (usize, usize),
    (sku_a, sku_b): (&ServerConfig, &ServerConfig),
) -> Result<(f64, f64), MeshError> {
    let Some(coloc) = graph.colocation() else {
        return Ok((1.0, 1.0));
    };
    let tiers = graph.tiers();
    let outcome = coloc
        .scenario
        .evaluate_with(tiers[a].service, tiers[b].service, sku_a, sku_b)?;
    Ok((outcome.retention_a, outcome.retention_b))
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

/// Records the trace: one span per request on the `requests` track, one
/// span per hop on the `hops` track, in canonical order (requests by
/// index, hops by job creation order). Returns the span id recorded for
/// each root request (`None` when sampling dropped its span).
///
/// The trace's shape is known up front — one span and one attribute per
/// request, one span and three attributes per job — so the sink reserves
/// it before the first span, and the request names are formatted into
/// one reused buffer.
fn record_trace(
    graph: &ServiceGraph,
    fwd: &Forward<'_>,
    response: &[f64],
    sink: &mut TraceSink,
) -> Vec<Option<u64>> {
    let arrival = &fwd.roots.arrival;
    let jobs = response.len();
    sink.reserve(arrival.len() + jobs, arrival.len() + 3 * jobs);
    let req_track = sink.track("requests");
    sink.set_track(req_track);
    let mut req_ids: Vec<Option<u64>> = vec![None; arrival.len()];
    let mut name = String::new();
    for (r, &start) in arrival.iter().enumerate() {
        name.clear();
        // Formatting into a `String` cannot fail.
        let _ = write!(name, "r{r}");
        let h = sink.leaf(
            LedgerKey::MeshRequest.name(),
            &name,
            start,
            response[r] - start,
        );
        if h.is_recorded() {
            req_ids[r] = sink.spans().last().map(|s| s.id);
        }
        sink.attr(h, "latency_s", AttrValue::F64(response[r] - start));
    }
    let hop_track = sink.track("hops");
    sink.set_track(hop_track);
    let (wait, service) = fwd.wait_and_service();
    for (j, job) in fwd.all_jobs().enumerate() {
        let h = sink.leaf(
            LedgerKey::MeshHop.name(),
            &graph.tiers()[job.tier].name,
            job.arrival,
            response[j] - job.arrival,
        );
        sink.attr(h, "req", AttrValue::Int(job.req as i64));
        sink.attr(h, "wait_s", AttrValue::F64(wait[j]));
        sink.attr(h, "service_s", AttrValue::F64(service[j]));
    }
    req_ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{colocation_mix, media, social_network};
    use crate::segment::backward_pass;
    use softsku_workloads::Microservice;

    fn small_config() -> MeshConfig {
        MeshConfig {
            requests: 400,
            arrival_rate_hz: 900.0,
            horizon_s: f64::INFINITY,
            window_insns: 60_000,
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
            .filter(|s| sink.cat(s) == LedgerKey::MeshRequest.name())
            .count();
        assert_eq!(req_spans as u64, report.injected);
        let hop_spans = sink
            .spans()
            .iter()
            .filter(|s| sink.cat(s) == LedgerKey::MeshHop.name())
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
            assert_eq!(sink.name(span), format!("r{}", s.req));
            assert!((span.dur_s - s.latency_s).abs() < 1e-12);
        }
    }

    /// The reference critical-child rule: scan each job's children in
    /// creation order and keep the first whose response plus return leg
    /// strictly beats the running best, starting from the job's finish.
    fn children_scan(
        parent: &[Option<usize>],
        rtt_back: &[f64],
        finish: &[f64],
        response: &[f64],
    ) -> Vec<u32> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); parent.len()];
        for (j, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push(j);
            }
        }
        (0..parent.len())
            .map(|j| {
                let mut next = NO_CHILD;
                let mut best = finish[j];
                for &c in &children[j] {
                    let via = response[c] + rtt_back[c];
                    if via > best {
                        best = via;
                        next = c as u32;
                    }
                }
                next
            })
            .collect()
    }

    #[test]
    fn backward_pass_critical_child_matches_the_children_scan_on_ties() {
        // Jobs 0..3 are roots; the rest form one child block at offset 3,
        // as `(parent, rtt_back, finish)`.
        let roots = [3.0, 4.0, 1.0];
        let children: [(u32, f64, f64); 8] = [
            // Two siblings of job 0 with equal `via` (5.0): the first wins.
            (0, 0.5, 4.5),
            (0, 1.0, 4.0),
            // A child of job 1 whose `via` equals job 1's own finish.
            (1, 0.5, 3.5),
            (1, 0.25, 3.0),
            // Job 2's first child wins through its own child; the later
            // equal pair (3.5) loses to it.
            (2, 0.5, 2.0),
            (2, 0.5, 3.0),
            (2, 0.5, 3.0),
            (7, 0.5, 3.0),
        ];
        let parent: Vec<u32> = children.iter().map(|c| c.0).collect();
        let rtt: Vec<f64> = children.iter().map(|c| c.1).collect();
        let finish: Vec<f64> = roots
            .iter()
            .copied()
            .chain(children.iter().map(|c| c.2))
            .collect();
        let (response, critical) =
            backward_pass(finish.clone(), std::iter::once((3, &parent[..], &rtt[..])));
        let flat_parent: Vec<Option<usize>> = [None; 3]
            .into_iter()
            .chain(parent.iter().map(|&p| Some(p as usize)))
            .collect();
        let flat_rtt: Vec<f64> = [0.0; 3].into_iter().chain(rtt.iter().copied()).collect();
        assert_eq!(
            critical,
            children_scan(&flat_parent, &flat_rtt, &finish, &response)
        );
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
        let table = sim.segment_table().unwrap();
        let fwd = sim.forward(&cals, &table);
        let finish = fwd.finish();
        let (response, critical) = fwd.backward(finish.clone());
        let (parent, rtt) = fwd.links();
        assert_eq!(critical, children_scan(&parent, &rtt, &finish, &response));
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
