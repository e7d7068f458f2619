//! SLO-gated canary promotion for request-graph scenarios.
//!
//! The staged-rollout loop gates per-service canaries on Welch guard-loss
//! plus a p99 tail guard, but a mesh deployment regresses where users
//! feel it: the *end-to-end* tail of the whole graph. [`MeshCanary`]
//! closes that gap. It tunes a joint assignment (default
//! [`MeshObjective::GraphP99`]), derives the SLO latency threshold from
//! the production baseline's own end-to-end p99, then replays the
//! candidate assignment through the instrumented simulator and feeds
//! every completed request — in canonical completion order — into an
//! [`SloEvaluator`]. Promotion requires the multi-window burn-rate alert
//! to never sustain past the configured trip count; a sustained burn
//! blocks promotion, rolls the deployment back to the production SKUs,
//! and enqueues a `slo.retune` ledger point, with the blocking alert's
//! exemplar span ids pointing at the offending request subtrees in the
//! trace export.
//!
//! Tuning runs on the deterministic scheduler and the sims and evaluator
//! are serial sim-time machines, so the verdict — promoted or blocked,
//! burn rates, exemplars, everything — is bit-identical for any worker
//! count.

use crate::error::MeshError;
use crate::graph::ServiceGraph;
use crate::sim::{MeshConfig, MeshReport, MeshSim};
use crate::tune::{MeshObjective, MeshTuner, TierSelection, TunedMesh};
use softsku_telemetry::slo::{Exemplar, SloEvaluator, SloSpec};
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::{LedgerKey, Ods, SeriesKey};

/// Gate parameters for one mesh canary campaign.
#[derive(Debug, Clone, Copy)]
pub struct MeshCanaryConfig {
    /// Tuning objective that produces the candidate assignment.
    pub objective: MeshObjective,
    /// SLO target good fraction (e.g. `0.99` = 1 % error budget).
    pub target: f64,
    /// SLO latency threshold as a multiple of the baseline's end-to-end
    /// p99 — the headroom a candidate's tail is allowed before requests
    /// count as bad. Must be ≥ 1.
    pub threshold_margin: f64,
    /// Fast burn window, in expected request arrivals (converted to
    /// seconds through the scenario's arrival rate).
    pub fast_requests: f64,
    /// Slow burn window, in expected request arrivals. Must exceed
    /// `fast_requests`.
    pub slow_requests: f64,
    /// Consecutive alerting evaluations that block promotion.
    pub sustain: u32,
}

impl Default for MeshCanaryConfig {
    fn default() -> Self {
        MeshCanaryConfig {
            objective: MeshObjective::GraphP99,
            target: 0.99,
            threshold_margin: 1.10,
            fast_requests: 25.0,
            slow_requests: 100.0,
            sustain: 8,
        }
    }
}

impl MeshCanaryConfig {
    fn validate(&self) -> Result<(), MeshError> {
        if !(self.threshold_margin.is_finite() && self.threshold_margin >= 1.0) {
            return Err(MeshError::Config(format!(
                "canary threshold margin {} must be >= 1",
                self.threshold_margin
            )));
        }
        if self.sustain == 0 {
            return Err(MeshError::Config(
                "canary sustain count must be positive".to_string(),
            ));
        }
        // Window and target shapes are enforced again by `SloSpec`, but
        // failing here names the canary parameter, not the derived spec.
        if !(self.fast_requests > 0.0 && self.slow_requests > self.fast_requests) {
            return Err(MeshError::Config(format!(
                "canary windows must satisfy 0 < fast ({}) < slow ({})",
                self.fast_requests, self.slow_requests
            )));
        }
        if !(self.target > 0.0 && self.target < 1.0) {
            return Err(MeshError::Config(format!(
                "canary SLO target {} must be in (0,1)",
                self.target
            )));
        }
        Ok(())
    }
}

/// Outcome of one gated campaign.
#[derive(Debug, Clone)]
pub struct MeshCanaryReport {
    /// The tuned candidate assignment the campaign tried to promote.
    pub tuned: TunedMesh,
    /// The production-SKU run the SLO threshold was derived from (always
    /// simulated without the injected regression).
    pub baseline: MeshReport,
    /// The candidate canary run (with whatever regression the scenario
    /// config injects).
    pub canary: MeshReport,
    /// The derived SLO latency threshold, seconds.
    pub threshold_s: f64,
    /// Whether the candidate promoted.
    pub promoted: bool,
    /// Burn-rate alerts fired during the canary.
    pub alerts: u64,
    /// Longest run of consecutive alerting evaluations.
    pub max_sustained: u32,
    /// Sim-time the gate blocked promotion, when it did.
    pub blocked_at_s: Option<f64>,
    /// Tail exemplars at the decisive evaluation (blocking alert when
    /// blocked, final evaluation otherwise), slowest first.
    pub exemplars: Vec<Exemplar>,
    /// What actually serves after the campaign: the tuned selections on
    /// promotion, the production SKUs after a rollback.
    pub deployed: Vec<TierSelection>,
}

/// SLO-gated promotion of a tuned mesh assignment. See the module docs.
#[derive(Debug, Clone)]
pub struct MeshCanary<'a> {
    graph: &'a ServiceGraph,
    config: MeshConfig,
    gate: MeshCanaryConfig,
}

impl<'a> MeshCanary<'a> {
    /// Builds a gated campaign over `graph`. `config` is the *canary*
    /// scenario — its `regress_frac`/`regress_scale` model the regression
    /// the candidate deployment would ship; the baseline and the tuner
    /// always run with the regression disabled (the baseline fleet never
    /// ran the bad push, and tuning happened before it landed).
    ///
    /// # Errors
    ///
    /// [`MeshError::Config`] on invalid gate parameters.
    pub fn new(
        graph: &'a ServiceGraph,
        config: MeshConfig,
        gate: MeshCanaryConfig,
    ) -> Result<Self, MeshError> {
        gate.validate()?;
        Ok(MeshCanary {
            graph,
            config,
            gate,
        })
    }

    /// Runs the campaign: baseline → tune → instrumented canary → burn
    /// gate. Appends `slo.*` points to `ods` under the graph entity and
    /// records the canary's request spans plus alert windows into `sink`.
    ///
    /// # Errors
    ///
    /// Simulation, tuning, and ledger errors.
    pub fn run(
        &self,
        workers: usize,
        ods: &mut Ods,
        sink: &mut TraceSink,
    ) -> Result<MeshCanaryReport, MeshError> {
        let mut clean = self.config;
        clean.regress_frac = 0.0;
        clean.regress_scale = 1.0;
        let prod = self.production_selections()?;
        let prod_skus: Vec<_> = prod.iter().map(|s| s.config.clone()).collect();
        let baseline = MeshSim::new(self.graph, clean)?.run(&prod_skus)?;

        let tuner = MeshTuner::with_default_candidates(self.graph, clean)?;
        let tuned = tuner.tune(self.gate.objective, workers)?;
        let cand_skus: Vec<_> = tuned.selections.iter().map(|s| s.config.clone()).collect();

        let threshold_s = self.gate.threshold_margin * baseline.p99_s;
        let fast_w = self.gate.fast_requests / self.config.arrival_rate_hz;
        let slow_w = self.gate.slow_requests / self.config.arrival_rate_hz;
        let spec = SloSpec::new(
            self.graph.name(),
            threshold_s,
            self.gate.target,
            fast_w,
            slow_w,
        )?;
        let mut slo = SloEvaluator::new(spec);

        let (canary, samples) =
            MeshSim::new(self.graph, self.config)?.run_instrumented(&cand_skus, sink)?;

        let mut max_sustained = 0u32;
        let mut blocked_at_s = None;
        let mut exemplars = Vec::new();
        for s in &samples {
            slo.observe(s.finish_s, s.latency_s, s.span_id)?;
            let status = slo.evaluate(s.finish_s, ods, sink)?;
            max_sustained = max_sustained.max(status.sustained);
            if blocked_at_s.is_none() && status.sustained >= self.gate.sustain {
                blocked_at_s = Some(status.t_s);
                exemplars = status.exemplars;
            }
        }
        let promoted = blocked_at_s.is_none();
        if promoted {
            exemplars = slo.exemplars().to_vec();
        }

        // The guarded end-to-end p99 margin is ledgered for every
        // campaign — `skuctl slo` charts the headroom a promotion had as
        // well as the breach that blocked one.
        let t_end = samples.last().map_or(0.0, |s| s.finish_s);
        ods.append(
            &SeriesKey::keyed(self.graph.name(), LedgerKey::SloGuardP99),
            t_end,
            canary.p99_s / baseline.p99_s - 1.0,
        )?;
        if let Some(t) = blocked_at_s {
            // A blocked canary is a re-tune order: the joint assignment
            // that won the clean graph no longer holds under the live
            // push. Value = the fast burn at the block.
            ods.append(
                &SeriesKey::keyed(self.graph.name(), LedgerKey::SloRetune),
                t_end.max(t),
                slo.burn_rate(t, fast_w),
            )?;
            let h = sink.leaf(LedgerKey::SloWindow.name(), "canary.blocked", t, 0.0);
            sink.attr(h, "graph", AttrValue::Str(self.graph.name().to_string()));
            sink.attr(h, "threshold_s", AttrValue::F64(threshold_s));
            sink.attr(h, "sustained", AttrValue::Int(i64::from(self.gate.sustain)));
        }

        let deployed = if promoted {
            tuned.selections.clone()
        } else {
            prod
        };
        Ok(MeshCanaryReport {
            tuned,
            baseline,
            canary,
            threshold_s,
            promoted,
            alerts: slo.alerts(),
            max_sustained,
            blocked_at_s,
            exemplars,
            deployed,
        })
    }

    /// The production SKU per tier — the holdback the gate rolls back to.
    fn production_selections(&self) -> Result<Vec<TierSelection>, MeshError> {
        self.graph
            .tiers()
            .iter()
            .map(|t| {
                let config = t.service.production_config(t.service.default_platform())?;
                Ok(TierSelection {
                    tier: t.name.clone(),
                    label: "prod".to_string(),
                    config,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::colocation_mix;

    fn scenario(regress_frac: f64, regress_scale: f64) -> MeshConfig {
        MeshConfig {
            requests: 400,
            arrival_rate_hz: 900.0,
            horizon_s: f64::INFINITY,
            window_insns: 60_000,
            service_cv2: 2.0,
            regress_frac,
            regress_scale,
            seed: 11,
        }
    }

    fn run(cfg: MeshConfig, workers: usize) -> (MeshCanaryReport, Ods, TraceSink) {
        let graph = colocation_mix().unwrap();
        let gate = MeshCanaryConfig::default();
        let canary = MeshCanary::new(&graph, cfg, gate).unwrap();
        let mut ods = Ods::unbounded();
        let mut sink = TraceSink::new();
        let report = canary.run(workers, &mut ods, &mut sink).unwrap();
        (report, ods, sink)
    }

    #[test]
    fn clean_campaign_promotes_the_tuned_assignment() {
        let (report, ods, _) = run(scenario(0.0, 1.0), 2);
        assert!(report.promoted, "no regression, no block: {report:?}");
        assert_eq!(report.blocked_at_s, None);
        assert_eq!(
            report.deployed.iter().map(|s| &s.label).collect::<Vec<_>>(),
            report
                .tuned
                .selections
                .iter()
                .map(|s| &s.label)
                .collect::<Vec<_>>(),
            "promotion deploys the tuned selections"
        );
        // The joint-tuned candidate beats the baseline tail, so its
        // guarded margin is negative.
        let guard = SeriesKey::keyed("colocation_mix", LedgerKey::SloGuardP99);
        assert_eq!(ods.len(&guard), 1);
        assert!(
            ods.raw_points(&guard)[0].1 < 0.0,
            "tuned p99 under baseline"
        );
        assert_eq!(
            ods.len(&SeriesKey::keyed("colocation_mix", LedgerKey::SloRetune)),
            0,
            "no re-tune order without a block"
        );
    }

    #[test]
    fn injected_regression_blocks_promotion_and_rolls_back() {
        let (report, ods, sink) = run(scenario(0.2, 4.0), 2);
        assert!(!report.promoted, "20% of requests 4x slower must block");
        assert!(report.blocked_at_s.is_some());
        assert!(report.alerts > 0);
        assert!(report.max_sustained >= MeshCanaryConfig::default().sustain);
        assert_eq!(
            report
                .deployed
                .iter()
                .map(|s| s.label.as_str())
                .collect::<Vec<_>>(),
            vec!["prod"; 4],
            "rollback restores the production SKUs"
        );
        assert_eq!(
            ods.len(&SeriesKey::keyed("colocation_mix", LedgerKey::SloRetune)),
            1
        );
        assert!(
            ods.len(&SeriesKey::keyed("colocation_mix", LedgerKey::SloAlert)) > 0,
            "alert points ledgered"
        );
        // The blocking alert carries exemplars whose span ids exist in
        // the trace export — the jump from "p99 violated" to the subtree.
        assert!(!report.exemplars.is_empty());
        let ids: Vec<u64> = sink.spans().iter().map(|s| s.id).collect();
        assert!(
            report
                .exemplars
                .iter()
                .any(|e| e.span_id != u64::MAX && ids.contains(&e.span_id)),
            "at least one exemplar resolves to a recorded span"
        );
    }

    #[test]
    fn verdicts_are_bit_identical_across_worker_counts() {
        for cfg in [scenario(0.0, 1.0), scenario(0.2, 4.0)] {
            let (one, ods1, _) = run(cfg, 1);
            let (four, ods4, _) = run(cfg, 4);
            assert_eq!(one.promoted, four.promoted);
            assert_eq!(
                one.blocked_at_s.map(f64::to_bits),
                four.blocked_at_s.map(f64::to_bits)
            );
            assert_eq!(one.canary.p99_s.to_bits(), four.canary.p99_s.to_bits());
            assert_eq!(one.alerts, four.alerts);
            let fast = SeriesKey::keyed("colocation_mix", LedgerKey::SloBurnFast);
            assert_eq!(ods1.raw_points(&fast), ods4.raw_points(&fast));
        }
    }
}
