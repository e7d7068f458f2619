//! The design-space map (paper Sec. 4).
//!
//! "When the desired 95 % statistical confidence is achieved, the A/B tester
//! outputs mean estimates, which it records in a design space map. … The
//! final design space map helps identify (with a 95 % confidence) the most
//! performant knob configurations."

use crate::abtest::{AbTestResult, Verdict};
use crate::search::{SelectedGain, Selection};
use softsku_knobs::{Knob, KnobSetting};
use std::collections::BTreeMap;

/// One measurement of a *joint* configuration (several knobs changed at
/// once, as the exhaustive sweep produces).
///
/// Joint results live in a dedicated ledger rather than under any single
/// knob: attributing a joint gain to one constituent knob would let
/// [`DesignSpaceMap::best_setting`] claim the whole interaction effect for
/// that knob alone.
#[derive(Debug, Clone)]
pub struct JointResult {
    /// The constituent setting of every swept knob, in sweep order.
    pub settings: Vec<KnobSetting>,
    /// The measurement; `result.setting` is a display label only.
    pub result: AbTestResult,
}

/// All A/B results for one experiment, organized per knob, with joint
/// (multi-knob) configurations in a separate ledger.
#[derive(Debug, Default)]
pub struct DesignSpaceMap {
    per_knob: BTreeMap<Knob, Vec<AbTestResult>>,
    joint: Vec<JointResult>,
}

impl DesignSpaceMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one A/B result.
    pub fn record(&mut self, result: AbTestResult) {
        self.per_knob
            .entry(result.setting.knob())
            .or_default()
            .push(result);
    }

    /// Records one joint-configuration result under every constituent
    /// setting, in the dedicated joint ledger.
    pub fn record_joint(&mut self, settings: Vec<KnobSetting>, result: AbTestResult) {
        self.joint.push(JointResult { settings, result });
    }

    /// All joint-configuration results, in test order.
    pub fn joint_results(&self) -> &[JointResult] {
        &self.joint
    }

    /// The most performant *significantly better* joint configuration, if
    /// any beat the baseline. Ties keep the earliest-recorded entry, so the
    /// winner is independent of how a parallel sweep's shards completed.
    pub fn best_joint(&self) -> Option<(&JointResult, f64)> {
        let mut best: Option<(&JointResult, f64)> = None;
        for j in &self.joint {
            if let Some(gain) = j.result.verdict.gain() {
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((j, gain));
                }
            }
        }
        best
    }

    /// Appends every result of `other`, preserving `other`'s internal test
    /// order. The parallel scheduler merges worker maps with this in
    /// canonical (plan) order, which is what makes the merged map identical
    /// regardless of worker count or completion order.
    pub fn merge(&mut self, other: DesignSpaceMap) {
        for (knob, results) in other.per_knob {
            self.per_knob.entry(knob).or_default().extend(results);
        }
        self.joint.extend(other.joint);
    }

    /// Knobs with at least one recorded result.
    pub fn knobs(&self) -> impl Iterator<Item = Knob> + '_ {
        self.per_knob.keys().copied()
    }

    /// All results for one knob, in test order.
    pub fn results(&self, knob: Knob) -> &[AbTestResult] {
        self.per_knob.get(&knob).map_or(&[], Vec::as_slice)
    }

    /// The most performant *significantly better* setting for a knob, if any
    /// setting beat the baseline. Ties keep the earliest-recorded setting,
    /// the rule [`DesignSpaceMap::best_joint`] follows.
    pub fn best_setting(&self, knob: Knob) -> Option<(KnobSetting, f64)> {
        let mut best: Option<(KnobSetting, f64)> = None;
        for r in self.results(knob) {
            if let Some(gain) = r.verdict.gain() {
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((r.setting, gain));
                }
            }
        }
        best
    }

    /// The winner of each of `knobs` that has one, in the given order: its
    /// best setting, selected with its [`SelectedGain::Individual`] gain.
    pub fn winners_of(&self, knobs: impl IntoIterator<Item = Knob>) -> Vec<Selection> {
        let best = knobs.into_iter().filter_map(|knob| self.best_setting(knob));
        best.map(individual).collect()
    }

    /// The per-knob winners of every knob in the map, in knob order (the map
    /// is keyed by a `BTreeMap`, so the order is canonical and independent
    /// of recording order). This is the input the rollout crate's
    /// `SkuComposer` starts from.
    pub fn winners(&self) -> Vec<Selection> {
        self.winners_of(self.knobs())
    }

    /// The per-knob winners by descending gain; a stable sort keeps knob
    /// order on ties. The head is the strongest claim a *one-knob* SKU could
    /// make, and the earliest knob among equal claims.
    pub fn ranked_winners(&self) -> Vec<Selection> {
        let mut best: Vec<(KnobSetting, f64)> =
            self.knobs().filter_map(|k| self.best_setting(k)).collect();
        best.sort_by(|a, b| b.1.total_cmp(&a.1));
        best.into_iter().map(individual).collect()
    }

    /// Total A/B tests recorded, joint configurations included.
    pub fn test_count(&self) -> usize {
        self.per_knob.values().map(Vec::len).sum::<usize>() + self.joint.len()
    }

    /// Total samples consumed across all tests, joint configurations
    /// included.
    pub fn sample_count(&self) -> usize {
        self.all_results().map(|r| r.samples).sum()
    }

    /// Settings discarded for QoS violations.
    pub fn qos_discards(&self) -> usize {
        self.count_verdict(|v| matches!(v, Verdict::QosViolated))
    }

    /// Settings skipped because the service cannot tolerate reboots.
    pub fn reboot_skips(&self) -> usize {
        self.count_verdict(|v| matches!(v, Verdict::SkippedRebootIntolerant))
    }

    /// Tests that hazards disrupted beyond a statistical claim.
    pub fn inconclusive(&self) -> usize {
        self.count_verdict(|v| matches!(v, Verdict::Inconclusive { .. }))
    }

    fn count_verdict(&self, pred: impl Fn(&Verdict) -> bool) -> usize {
        self.all_results().filter(|r| pred(&r.verdict)).count()
    }

    /// Every recorded result, per-knob entries first, then joint entries.
    fn all_results(&self) -> impl Iterator<Item = &AbTestResult> {
        self.per_knob
            .values()
            .flat_map(|v| v.iter())
            .chain(self.joint.iter().map(|j| &j.result))
    }

    /// Renders a human-readable table of the map (one line per test).
    pub fn render(&self) -> String {
        let verdict_desc = |verdict: &Verdict| match *verdict {
            Verdict::Better { gain } => format!("better {:+.2}%", gain * 100.0),
            Verdict::Worse { loss } => format!("worse {:+.2}%", loss * 100.0),
            Verdict::NoDifference => "no significant difference".to_string(),
            Verdict::QosViolated => "discarded: QoS violation".to_string(),
            Verdict::SkippedRebootIntolerant => "skipped: reboot not tolerated".to_string(),
            Verdict::Inconclusive { reason } => format!("inconclusive: {reason}"),
        };
        let mut out = String::new();
        for (knob, results) in &self.per_knob {
            out.push_str(&format!("knob {knob}:\n"));
            for r in results {
                out.push_str(&format!(
                    "  {:<28} {:<28} ({} samples)\n",
                    r.setting.to_string(),
                    verdict_desc(&r.verdict),
                    r.samples
                ));
            }
        }
        if !self.joint.is_empty() {
            out.push_str("joint configurations:\n");
            for j in &self.joint {
                let label = j
                    .settings
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!(
                    "  [{label}] {:<28} ({} samples)\n",
                    verdict_desc(&j.result.verdict),
                    j.result.samples
                ));
            }
        }
        out
    }
}

/// A per-knob best setting as a selection: measured alone, so its gain is
/// individual.
fn individual((setting, gain): (KnobSetting, f64)) -> Selection {
    Selection {
        setting,
        gain: SelectedGain::Individual(gain),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_telemetry::stats::Summary;

    fn result(setting: KnobSetting, verdict: Verdict, samples: usize) -> AbTestResult {
        AbTestResult {
            setting,
            baseline: Some(Summary::from_moments(samples as u64, 100.0, 1.0)),
            candidate: Some(Summary::from_moments(samples as u64, 101.0, 1.0)),
            welch: None,
            verdict,
            samples,
            attempts: samples,
            rejected_outliers: 0,
        }
    }

    #[test]
    fn best_setting_picks_max_gain() {
        let mut map = DesignSpaceMap::new();
        map.record(result(
            KnobSetting::ShpPages(100),
            Verdict::Better { gain: 0.01 },
            200,
        ));
        map.record(result(
            KnobSetting::ShpPages(300),
            Verdict::Better { gain: 0.06 },
            200,
        ));
        map.record(result(
            KnobSetting::ShpPages(600),
            Verdict::Worse { loss: -0.01 },
            200,
        ));
        let (setting, gain) = map.best_setting(Knob::Shp).unwrap();
        assert_eq!(setting, KnobSetting::ShpPages(300));
        assert!((gain - 0.06).abs() < 1e-12);
        assert_eq!(map.test_count(), 3);
        assert_eq!(map.sample_count(), 600);
    }

    #[test]
    fn no_winner_when_nothing_beats_baseline() {
        let mut map = DesignSpaceMap::new();
        map.record(result(
            KnobSetting::CoreFrequencyGhz(1.8),
            Verdict::Worse { loss: -0.1 },
            100,
        ));
        map.record(result(
            KnobSetting::CoreFrequencyGhz(2.0),
            Verdict::NoDifference,
            2000,
        ));
        assert!(map.best_setting(Knob::CoreFrequency).is_none());
    }

    #[test]
    fn discard_and_skip_counting() {
        let mut map = DesignSpaceMap::new();
        map.record(result(KnobSetting::CoreCount(4), Verdict::QosViolated, 0));
        map.record(result(
            KnobSetting::CoreCount(8),
            Verdict::SkippedRebootIntolerant,
            0,
        ));
        assert_eq!(map.qos_discards(), 1);
        assert_eq!(map.reboot_skips(), 1);
        let rendered = map.render();
        assert!(rendered.contains("QoS violation"));
        assert!(rendered.contains("reboot not tolerated"));
    }

    #[test]
    fn inconclusive_results_are_counted_and_rendered() {
        use crate::abtest::InconclusiveReason;
        let mut map = DesignSpaceMap::new();
        map.record(result(
            KnobSetting::ShpPages(100),
            Verdict::Inconclusive {
                reason: InconclusiveReason::SampleBudgetExhausted,
            },
            40,
        ));
        assert_eq!(map.inconclusive(), 1);
        assert!(map.best_setting(Knob::Shp).is_none());
        assert!(map.render().contains("inconclusive"));
    }

    #[test]
    fn empty_map_is_well_behaved() {
        let map = DesignSpaceMap::new();
        assert_eq!(map.test_count(), 0);
        assert_eq!(map.results(Knob::Cdp).len(), 0);
        assert!(map.best_setting(Knob::Thp).is_none());
        assert!(map.best_joint().is_none());
        assert!(map.render().is_empty());
    }

    #[test]
    fn joint_results_do_not_pollute_per_knob_attribution() {
        let mut map = DesignSpaceMap::new();
        let settings = vec![
            KnobSetting::ShpPages(300),
            KnobSetting::Thp(softsku_archsim::ThpMode::AlwaysOn),
        ];
        map.record_joint(
            settings.clone(),
            result(settings[1], Verdict::Better { gain: 0.08 }, 150),
        );
        // The joint gain is visible in the joint ledger only.
        assert!(map.best_setting(Knob::Shp).is_none());
        assert!(map.best_setting(Knob::Thp).is_none());
        let (best, gain) = map.best_joint().unwrap();
        assert_eq!(best.settings, settings);
        assert!((gain - 0.08).abs() < 1e-12);
        assert_eq!(map.test_count(), 1);
        assert_eq!(map.sample_count(), 150);
        assert!(map.render().contains("joint configurations"));
    }

    #[test]
    fn joint_ties_keep_the_earliest_entry() {
        let mut map = DesignSpaceMap::new();
        let first = vec![KnobSetting::ShpPages(300)];
        let second = vec![KnobSetting::ShpPages(400)];
        map.record_joint(
            first.clone(),
            result(first[0], Verdict::Better { gain: 0.05 }, 100),
        );
        map.record_joint(
            second.clone(),
            result(second[0], Verdict::Better { gain: 0.05 }, 100),
        );
        assert_eq!(map.best_joint().unwrap().0.settings, first);
    }

    #[test]
    fn best_setting_ties_keep_the_earliest_setting() {
        let mut map = DesignSpaceMap::new();
        map.record(result(
            KnobSetting::ShpPages(300),
            Verdict::Better { gain: 0.05 },
            100,
        ));
        map.record(result(
            KnobSetting::ShpPages(400),
            Verdict::Better { gain: 0.05 },
            100,
        ));
        let (setting, _) = map.best_setting(Knob::Shp).unwrap();
        assert_eq!(setting, KnobSetting::ShpPages(300));
    }

    #[test]
    fn winners_come_out_in_knob_order_with_best_single_on_top() {
        let mut map = DesignSpaceMap::new();
        map.record(result(
            KnobSetting::ShpPages(300),
            Verdict::Better { gain: 0.06 },
            200,
        ));
        map.record(result(
            KnobSetting::CoreFrequencyGhz(1.8),
            Verdict::Better { gain: 0.02 },
            200,
        ));
        map.record(result(KnobSetting::CoreCount(8), Verdict::NoDifference, 50));
        let winners = map.winners();
        assert_eq!(winners.len(), 2, "NoDifference is not a winner");
        // Knob order, not recording or gain order.
        assert_eq!(winners[0].knob(), Knob::CoreFrequency);
        assert_eq!(winners[1].knob(), Knob::Shp);
        let best = map.ranked_winners()[0];
        assert_eq!(best.knob(), Knob::Shp);
        assert_eq!(best.setting, KnobSetting::ShpPages(300));
        let SelectedGain::Individual(gain) = best.gain else {
            panic!("a per-knob winner is measured alone: {best:?}");
        };
        assert!((gain - 0.06).abs() < 1e-12);
        assert!(DesignSpaceMap::new().ranked_winners().is_empty());
    }

    #[test]
    fn merge_preserves_order_and_counts() {
        let mut a = DesignSpaceMap::new();
        a.record(result(
            KnobSetting::ShpPages(100),
            Verdict::Better { gain: 0.01 },
            50,
        ));
        let mut b = DesignSpaceMap::new();
        b.record(result(
            KnobSetting::ShpPages(300),
            Verdict::Better { gain: 0.06 },
            50,
        ));
        b.record_joint(
            vec![KnobSetting::ShpPages(300)],
            result(
                KnobSetting::ShpPages(300),
                Verdict::Better { gain: 0.07 },
                50,
            ),
        );
        a.merge(b);
        assert_eq!(a.test_count(), 3);
        assert_eq!(a.results(Knob::Shp).len(), 2);
        assert_eq!(a.results(Knob::Shp)[1].setting, KnobSetting::ShpPages(300));
        assert_eq!(a.joint_results().len(), 1);
        assert_eq!(
            a.best_setting(Knob::Shp).unwrap().0,
            KnobSetting::ShpPages(300)
        );
    }
}
