//! Joint soft-SKU tuning against the request graph.
//!
//! The paper tunes each service in isolation for its own throughput
//! (MIPS). A request graph changes the objective: the metric users feel
//! is the *end-to-end* p99, and a SKU that wins a tier's private
//! benchmark can lose the graph — most sharply under colocation, where a
//! bandwidth-hungry configuration's extra MIPS comes out of the
//! socket-mate's retention, inflating a tier that sits on every
//! request's critical path.
//!
//! [`MeshTuner`] makes the comparison explicit. It evaluates the same
//! per-tier candidate SKUs under two [`MeshObjective`]s:
//!
//! * [`MeshObjective::PerTierMips`] — the paper's per-service rule: each
//!   tier independently takes the candidate with the highest solo MIPS.
//! * [`MeshObjective::GraphP99`] — the joint rule: every cross-tier
//!   assignment is simulated through the graph and scored by its
//!   end-to-end p99 alone; the lowest wins, and only the winner gets a
//!   full [`MeshReport`].
//!
//! Assignments are enumerated by the core scheduler's [`odometer`]
//! (canonical mixed-radix order, first tier fastest) and evaluated by
//! [`run_tasks`], so the tuning verdict is bit-identical for any worker
//! count.

use crate::error::MeshError;
use crate::graph::ServiceGraph;
use crate::segment::SegmentTable;
use crate::sim::{pair_retention, tier_mips, MeshConfig, MeshReport, MeshSim, TierCal};
use softsku_archsim::engine::ServerConfig;
use std::ops::ControlFlow;
use usku::{odometer, run_tasks};

/// One candidate soft SKU for a tier: a label (its name in the tier's
/// selection) and the configuration it denotes.
#[derive(Debug, Clone)]
pub struct SkuCandidate {
    /// Candidate label (unique within a tier's list).
    pub label: String,
    /// The configuration.
    pub config: ServerConfig,
}

/// The tuning objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshObjective {
    /// Minimize the graph's end-to-end p99 over joint assignments.
    GraphP99,
    /// Maximize each tier's solo MIPS independently (the paper's
    /// per-service rule, blind to the graph and to colocation).
    PerTierMips,
}

/// One tier's chosen SKU.
#[derive(Debug, Clone)]
pub struct TierSelection {
    /// Tier name.
    pub tier: String,
    /// Winning candidate label.
    pub label: String,
    /// Winning configuration.
    pub config: ServerConfig,
}

/// Outcome of one tuning run.
#[derive(Debug, Clone)]
pub struct TunedMesh {
    /// Which objective produced it.
    pub objective: MeshObjective,
    /// Winning SKU per tier, in tier declaration order.
    pub selections: Vec<TierSelection>,
    /// The graph simulated under the winning assignment.
    pub report: MeshReport,
    /// How many candidate evaluations the objective required.
    pub evaluated: usize,
    /// How many tier segments (one tier's forward pass under one cone of
    /// upstream calibrations) were simulated: every tier once for a
    /// single simulation, each distinct segment once across a joint tune.
    pub tier_passes: usize,
}

impl TunedMesh {
    /// The winning labels, in tier order (convenient for comparisons).
    pub fn labels(&self) -> Vec<&str> {
        self.selections.iter().map(|s| s.label.as_str()).collect()
    }
}

/// Default candidate list for a tier: the production SKU plus a *quiet*
/// variant with all four hardware prefetchers off. Production configs
/// already sit at every "up" knob's ceiling, so quiet is the interesting
/// deviation: it gives back a few percent of solo MIPS, and in exchange
/// stops speculatively saturating the memory bus — the currency a
/// colocated socket-mate's retention is paid in. A memory-turbo variant
/// (uncore ceiling, prefetchers on) is appended only when it actually
/// differs from production.
///
/// # Errors
///
/// Propagates workload-profile errors.
pub fn default_candidates(
    service: softsku_workloads::Microservice,
) -> Result<Vec<SkuCandidate>, MeshError> {
    let prod = service.production_config(service.default_platform())?;
    let mut quiet = prod.clone();
    quiet.prefetchers = softsku_archsim::prefetch::PrefetcherConfig::all_off();
    let mut turbo = prod.clone();
    turbo.uncore_freq_ghz = prod.platform.uncore_freq_range_ghz.1;
    turbo.prefetchers = softsku_archsim::prefetch::PrefetcherConfig::all_on();
    let mut out = vec![SkuCandidate {
        label: "prod".to_string(),
        config: prod.clone(),
    }];
    if quiet != prod && quiet.validate().is_ok() {
        out.push(SkuCandidate {
            label: "quiet".to_string(),
            config: quiet,
        });
    }
    if turbo != prod && turbo.validate().is_ok() {
        out.push(SkuCandidate {
            label: "mem-turbo".to_string(),
            config: turbo,
        });
    }
    Ok(out)
}

/// Tunes a graph's tiers over per-tier candidate SKUs.
#[derive(Debug, Clone)]
pub struct MeshTuner<'a> {
    graph: &'a ServiceGraph,
    config: MeshConfig,
    candidates: Vec<Vec<SkuCandidate>>,
}

impl<'a> MeshTuner<'a> {
    /// Builds a tuner with explicit per-tier candidate lists (tier
    /// declaration order; every list non-empty, labels unique).
    ///
    /// # Errors
    ///
    /// [`MeshError::Config`] on shape violations.
    pub fn new(
        graph: &'a ServiceGraph,
        config: MeshConfig,
        candidates: Vec<Vec<SkuCandidate>>,
    ) -> Result<Self, MeshError> {
        if candidates.len() != graph.tiers().len() {
            return Err(MeshError::Config(format!(
                "{} candidate lists for {} tiers",
                candidates.len(),
                graph.tiers().len()
            )));
        }
        for (tier, cands) in graph.tiers().iter().zip(&candidates) {
            if cands.is_empty() {
                return Err(MeshError::Config(format!(
                    "tier {:?} has no candidates",
                    tier.name
                )));
            }
            for (i, c) in cands.iter().enumerate() {
                if cands[..i].iter().any(|p| p.label == c.label) {
                    return Err(MeshError::Config(format!(
                        "tier {:?} repeats candidate label {:?}",
                        tier.name, c.label
                    )));
                }
            }
        }
        Ok(MeshTuner {
            graph,
            config,
            candidates,
        })
    }

    /// Builds a tuner with [`default_candidates`] for every tier.
    ///
    /// # Errors
    ///
    /// Propagates workload-profile errors.
    pub fn with_default_candidates(
        graph: &'a ServiceGraph,
        config: MeshConfig,
    ) -> Result<Self, MeshError> {
        let candidates = graph
            .tiers()
            .iter()
            .map(|t| default_candidates(t.service))
            .collect::<Result<Vec<_>, _>>()?;
        MeshTuner::new(graph, config, candidates)
    }

    /// The per-tier candidate lists.
    pub fn candidates(&self) -> &[Vec<SkuCandidate>] {
        &self.candidates
    }

    /// Runs the objective on `workers` scheduler workers. The verdict —
    /// selections, report, everything — is a pure function of
    /// `(graph, config, candidates, objective)`; the worker count never
    /// changes a bit of it.
    ///
    /// # Errors
    ///
    /// Simulation and calibration errors.
    pub fn tune(&self, objective: MeshObjective, workers: usize) -> Result<TunedMesh, MeshError> {
        let sim = MeshSim::new(self.graph, self.config)?;
        self.tune_in(objective, workers, &sim, &sim.segment_table()?)
    }

    /// [`MeshTuner::tune`] on `sim`, a simulator of the tuner's graph and
    /// configuration, through `table`, an empty table of `sim`'s
    /// (`tier_passes` counts its segments). The caller keeps the table, so
    /// later runs of the same configuration reuse the tune's segments.
    pub(crate) fn tune_in(
        &self,
        objective: MeshObjective,
        workers: usize,
        sim: &MeshSim<'_>,
        table: &SegmentTable,
    ) -> Result<TunedMesh, MeshError> {
        debug_assert_eq!(sim.config(), &self.config);
        match objective {
            MeshObjective::GraphP99 => self.tune_graph_p99(workers, sim, table),
            MeshObjective::PerTierMips => self.tune_per_tier_mips(workers, sim, table),
        }
    }

    fn tune_graph_p99(
        &self,
        workers: usize,
        sim: &MeshSim<'_>,
        table: &SegmentTable,
    ) -> Result<TunedMesh, MeshError> {
        // Calibration inputs depend on one tier's (or one colocated
        // pair's) candidates, not on the whole assignment.
        let mips = self.candidate_mips(workers)?;
        let retention = self.pair_retention(workers)?;
        let plan = self.plan();
        // One table for the whole tune: an assignment re-simulates only
        // the tiers whose cone of calibrations no earlier one has seen,
        // and is scored by its p99 alone.
        let p99s = run_tasks(&plan, workers, |choice| {
            self.measured_cals(sim, &mips, &retention, choice)
                .map(|cals| sim.p99_shared(&cals, table))
        })?;

        // Lowest p99 wins; ties resolve to the earliest plan index, so
        // the verdict is total and deterministic.
        let mut best = 0usize;
        for (i, &p99) in p99s.iter().enumerate() {
            if p99 < p99s[best] {
                best = i;
            }
        }
        let choice = &plan[best];
        // Only the winner gets a full report; its segments are all cached.
        let cals = self.measured_cals(sim, &mips, &retention, choice)?;
        Ok(TunedMesh {
            objective: MeshObjective::GraphP99,
            selections: self.selections_for(choice),
            report: sim.run_shared(&cals, table),
            evaluated: plan.len(),
            tier_passes: table.passes(),
        })
    }

    /// Every cross-tier assignment (a candidate index per tier), in the
    /// scheduler's canonical order.
    fn plan(&self) -> Vec<Vec<usize>> {
        let radices: Vec<usize> = self.candidates.iter().map(Vec::len).collect();
        let mut plan = Vec::new();
        odometer(&radices, &mut |choice| {
            plan.push(choice.to_vec());
            ControlFlow::Continue(())
        });
        plan
    }

    fn tune_per_tier_mips(
        &self,
        workers: usize,
        sim: &MeshSim<'_>,
        table: &SegmentTable,
    ) -> Result<TunedMesh, MeshError> {
        let mips = self.candidate_mips(workers)?;
        // Strictly-greater wins, in candidate order, so ties keep the
        // earliest candidate.
        let choice: Vec<usize> = mips
            .iter()
            .map(|row| {
                let mut best = 0;
                for (c, &(_, cand)) in row.iter().enumerate() {
                    if cand > row[best].1 {
                        best = c;
                    }
                }
                best
            })
            .collect();
        let selections = self.selections_for(&choice);
        let cals = sim.calibrate(&self.assignment_configs(&choice))?;
        let report = sim.run_shared(&cals, table);
        Ok(TunedMesh {
            objective: MeshObjective::PerTierMips,
            selections,
            report,
            evaluated: mips.iter().map(Vec::len).sum(),
            tier_passes: mips.len(),
        })
    }

    /// An assignment's calibration from [`Self::candidate_mips`] and
    /// [`Self::pair_retention`].
    fn measured_cals(
        &self,
        sim: &MeshSim<'_>,
        mips: &[Vec<(f64, f64)>],
        retention: &[Vec<(f64, f64)>],
        choice: &[usize],
    ) -> Result<Vec<TierCal>, MeshError> {
        sim.calibrate_with(
            |t| Ok(mips[t][choice[t]]),
            |p, (a, b)| Ok(retention[p][choice[a] * self.candidates[b].len() + choice[b]]),
        )
    }

    /// [`tier_mips`] of every (tier, candidate), as `[tier][candidate]`.
    /// Units run candidate-major, `(t0,c0), (t1,c0), …`, so concurrent
    /// workers take different tiers' cold production windows instead of
    /// waiting on the same tier's.
    fn candidate_mips(&self, workers: usize) -> Result<Vec<Vec<(f64, f64)>>, MeshError> {
        let widest = self.candidates.iter().map(Vec::len).max().unwrap_or(0);
        let units: Vec<(usize, usize)> = (0..widest)
            .flat_map(|c| {
                (0..self.candidates.len())
                    .filter(move |&t| c < self.candidates[t].len())
                    .map(move |t| (t, c))
            })
            .collect();
        let flat = run_tasks(&units, workers, |&(t, c)| {
            tier_mips(self.graph, &self.config, t, &self.candidates[t][c].config)
        })?;
        let mut mips: Vec<Vec<(f64, f64)>> = self
            .candidates
            .iter()
            .map(|cands| Vec::with_capacity(cands.len()))
            .collect();
        // Each tier's units arrive in ascending candidate order.
        for (&(t, _), m) in units.iter().zip(flat) {
            mips[t].push(m);
        }
        Ok(mips)
    }

    /// [`pair_retention`] of every colocated pair `(a, b)`, in placement
    /// order, under every candidate pairing, row-major by `a`'s candidate.
    fn pair_retention(&self, workers: usize) -> Result<Vec<Vec<(f64, f64)>>, MeshError> {
        let Some(coloc) = self.graph.colocation() else {
            return Ok(Vec::new());
        };
        coloc
            .pairs
            .iter()
            .map(|&(a, b)| {
                let units: Vec<(usize, usize)> = (0..self.candidates[a].len())
                    .flat_map(|ca| (0..self.candidates[b].len()).map(move |cb| (ca, cb)))
                    .collect();
                run_tasks(&units, workers, |&(ca, cb)| {
                    let skus = (
                        &self.candidates[a][ca].config,
                        &self.candidates[b][cb].config,
                    );
                    pair_retention(self.graph, (a, b), skus)
                })
            })
            .collect()
    }

    fn assignment_configs(&self, choice: &[usize]) -> Vec<ServerConfig> {
        choice
            .iter()
            .enumerate()
            .map(|(t, &c)| self.candidates[t][c].config.clone())
            .collect()
    }

    fn selections_for(&self, choice: &[usize]) -> Vec<TierSelection> {
        self.graph
            .tiers()
            .iter()
            .zip(choice)
            .enumerate()
            .map(|(t, (tier, &c))| TierSelection {
                tier: tier.name.clone(),
                label: self.candidates[t][c].label.clone(),
                config: self.candidates[t][c].config.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{colocation_mix, media, social_network};

    fn tuner_config() -> MeshConfig {
        MeshConfig {
            requests: 600,
            arrival_rate_hz: 900.0,
            horizon_s: f64::INFINITY,
            window_insns: 60_000,
            regress_frac: 0.0,
            regress_scale: 1.0,
            seed: 21,
        }
    }

    #[test]
    fn default_candidates_are_distinct_and_valid() {
        for svc in softsku_workloads::Microservice::ALL {
            let cands = default_candidates(svc).unwrap();
            assert!(!cands.is_empty(), "{}", svc.name());
            for c in &cands {
                c.config.validate().unwrap();
            }
        }
    }

    #[test]
    fn verdict_is_identical_across_worker_counts() {
        let graph = colocation_mix().unwrap();
        let tuner = MeshTuner::with_default_candidates(&graph, tuner_config()).unwrap();
        let serial = tuner.tune(MeshObjective::GraphP99, 1).unwrap();
        let four = tuner.tune(MeshObjective::GraphP99, 4).unwrap();
        assert_eq!(serial.labels(), four.labels());
        assert_eq!(serial.report.p99_s.to_bits(), four.report.p99_s.to_bits());
    }

    #[test]
    fn joint_and_private_objectives_pick_different_skus() {
        // The ISSUE's acceptance demo: on the colocation-mix graph the
        // paper's per-tier MIPS rule keeps production everywhere (quiet
        // strictly loses every solo benchmark), while joint graph-p99
        // tuning turns the web tier's prefetchers off — web barely needs
        // the MIPS, and the bandwidth it stops burning comes back as
        // socket-mate retention for feed, the critical-path tier.
        let graph = colocation_mix().unwrap();
        let tuner = MeshTuner::with_default_candidates(&graph, tuner_config()).unwrap();
        let joint = tuner.tune(MeshObjective::GraphP99, 2).unwrap();
        let private = tuner.tune(MeshObjective::PerTierMips, 2).unwrap();
        assert_eq!(
            private.labels(),
            vec!["prod"; 4],
            "per-tier MIPS never gives up solo throughput"
        );
        assert_ne!(
            joint.labels(),
            private.labels(),
            "joint tuning deviates on at least one tier"
        );
        assert!(
            joint.report.p99_s < private.report.p99_s,
            "the deviation buys end-to-end tail latency: {} vs {}",
            joint.report.p99_s,
            private.report.p99_s
        );
    }

    #[test]
    fn shared_segments_and_p99_scores_reproduce_every_assignment() {
        // Every plan unit of every preset, calibrated from per-candidate
        // measurements and run in plan order through one table, against a
        // fresh simulation of the same assignment. A cone key missing an
        // ancestor's calibration (social_network's store reads five) or
        // keyed on labels rather than calibrations (colocation_mix's web
        // reads feed's SKU through retention) hands some unit another
        // assignment's segment. The tuner ranks units by `p99_shared` and
        // reports only the winner, so each score must also be the full
        // report's p99, bit for bit, or another assignment could win.
        let mut config = tuner_config();
        config.requests = 300;
        for graph in [social_network(), media(), colocation_mix()] {
            let graph = graph.unwrap();
            let tuner = MeshTuner::with_default_candidates(&graph, config).unwrap();
            let sim = MeshSim::new(&graph, config).unwrap();
            let table = sim.segment_table().unwrap();
            let mips = tuner.candidate_mips(2).unwrap();
            let retention = tuner.pair_retention(2).unwrap();
            for choice in tuner.plan() {
                let skus = tuner.assignment_configs(&choice);
                let cals = tuner
                    .measured_cals(&sim, &mips, &retention, &choice)
                    .unwrap();
                let shared = sim.run_shared(&cals, &table);
                let fresh = sim.run(&skus).unwrap();
                assert_eq!(
                    sim.p99_shared(&cals, &table).to_bits(),
                    shared.p99_s.to_bits(),
                    "{} assignment {:?} scores another p99",
                    graph.name(),
                    choice
                );
                assert_eq!(
                    format!("{shared:?}"),
                    format!("{fresh:?}"),
                    "{} assignment {:?}",
                    graph.name(),
                    choice
                );
            }
        }
    }

    #[test]
    fn shapes_are_validated() {
        let graph = colocation_mix().unwrap();
        assert!(MeshTuner::new(&graph, tuner_config(), vec![]).is_err());
        let empty_tier: Vec<Vec<SkuCandidate>> = graph.tiers().iter().map(|_| Vec::new()).collect();
        assert!(MeshTuner::new(&graph, tuner_config(), empty_tier).is_err());
    }

    #[test]
    fn an_invalid_candidate_fails_the_tune_as_a_cluster_error() {
        let graph = colocation_mix().unwrap();
        let mut candidates = MeshTuner::with_default_candidates(&graph, tuner_config())
            .unwrap()
            .candidates()
            .to_vec();
        let mut broken = candidates[0][0].config.clone();
        broken.llc_ways_enabled = 0;
        assert!(broken.validate().is_err());
        candidates[0].push(SkuCandidate {
            label: "no-llc".to_string(),
            config: broken,
        });
        let tuner = MeshTuner::new(&graph, tuner_config(), candidates).unwrap();
        for objective in [MeshObjective::GraphP99, MeshObjective::PerTierMips] {
            match tuner.tune(objective, 2) {
                Err(MeshError::Cluster(_)) => {}
                other => panic!("{objective:?}: expected MeshError::Cluster, got {other:?}"),
            }
        }
    }
}
