//! Ablation studies of the design choices DESIGN.md calls out — beyond the
//! paper's figures, these quantify *why* µSKU is built the way it is.
//!
//! * [`search_strategies`] — independent vs exhaustive vs hill-climbing on
//!   the same subspace: test cost and the non-additivity of knob gains
//!   (paper Sec. 7's "exhaustive design-space sweep" discussion).
//! * [`noise_vs_samples`] — how many samples the A/B tester needs to decide
//!   effects of different sizes under different noise levels (the paper's
//!   "minutes to hours of measurement" and the ~30 k-sample give-up rule).
//! * [`metric_choice`] — MIPS vs QPS decisions on the same knob, including
//!   the Cache tier where the paper says MIPS is invalid.

use crate::common::pct;
use softsku_archsim::pagemap::ThpMode;
use softsku_cluster::{AbEnvironment, EnvConfig};
use softsku_knobs::{Knob, KnobSetting};
use softsku_workloads::{Microservice, PlatformKind};
use usku::{
    additive_prediction, exhaustive_sweep, hill_climb, independent_sweep, AbTestConfig, AbTester,
    InputFile, PerformanceMetric, Schedule, SelectedGain, SweepConfig, Usku, UskuConfig,
};

/// A proto environment and a search schedule, both seeded from `seed`.
fn env(service: Microservice, platform: PlatformKind, seed: u64) -> (AbEnvironment, Schedule) {
    let profile = service.profile(platform).expect("supported");
    let mut cfg = EnvConfig::fast_test();
    cfg.window_insns = 120_000;
    let proto = AbEnvironment::new(profile, cfg, seed).expect("environment builds");
    (proto, Schedule::new(seed))
}

/// Search-strategy ablation on the {THP, SHP} subspace of Web-Skylake.
pub fn search_strategies() -> String {
    let mut out =
        String::from("Ablation A — search strategies on Web (Skylake), knobs = {thp, shp}\n");
    let profile = Microservice::Web
        .profile(PlatformKind::Skylake18)
        .expect("supported");
    let production = profile.production_config.clone();
    let space = softsku_knobs::KnobSpace::for_platform(&production.platform, profile.constraints);
    let knobs = [Knob::Thp, Knob::Shp];
    let tester = AbTester::new(AbTestConfig::fast_test(), PerformanceMetric::Mips);

    let mut rows = Vec::new();
    {
        let (mut e, sched) = env(Microservice::Web, PlatformKind::Skylake18, 301);
        let r = independent_sweep(&tester, &mut e, &production, &space, &knobs, sched)
            .expect("sweep runs");
        rows.push(("independent", r));
    }
    {
        let (mut e, sched) = env(Microservice::Web, PlatformKind::Skylake18, 302);
        let r = exhaustive_sweep(&tester, &mut e, &production, &space, &knobs, 100, sched)
            .expect("sweep runs");
        rows.push(("exhaustive", r));
    }
    {
        let (mut e, sched) = env(Microservice::Web, PlatformKind::Skylake18, 303);
        let r =
            hill_climb(&tester, &mut e, &production, &space, &knobs, 2, sched).expect("sweep runs");
        rows.push(("hill_climbing", r));
    }

    out.push_str(&format!(
        "  {:<14} {:>8} {:>10} {:>22}\n",
        "strategy", "tests", "samples", "selected config"
    ));
    for (name, r) in &rows {
        out.push_str(&format!(
            "  {:<14} {:>8} {:>10}   thp={} shp={}\n",
            name,
            r.map.test_count(),
            r.map.sample_count(),
            r.best_config.thp,
            r.best_config.shp_pages,
        ));
    }
    out.push_str(
        "  (independent assumes additivity and pays |settings| tests; exhaustive pays the\n   cross product; hill climbing re-tests the space once per accepted move)\n",
    );
    out
}

/// Sample-cost ablation: decision cost vs effect size and noise.
pub fn noise_vs_samples() -> String {
    let mut out =
        String::from("Ablation B — A/B samples needed per verdict vs effect size and noise\n");
    let effects: [(&str, KnobSetting); 3] = [
        (
            "~5% effect (CDP {6,5})",
            KnobSetting::Cdp(Some(
                softsku_archsim::cache::CdpPartition::new(6, 5, 11).expect("valid"),
            )),
        ),
        (
            "~2% effect (THP always)",
            KnobSetting::Thp(ThpMode::AlwaysOn),
        ),
        (
            "null effect (re-apply 2.2 GHz)",
            KnobSetting::CoreFrequencyGhz(2.2),
        ),
    ];
    for noise in [0.002, 0.008] {
        out.push_str(&format!("  measurement noise {:.1}%:\n", noise * 100.0));
        for (label, setting) in effects {
            let profile = Microservice::Web
                .profile(PlatformKind::Skylake18)
                .expect("supported");
            let production = profile.production_config.clone();
            let mut cfg = EnvConfig::fast_test();
            cfg.measurement_noise = noise;
            cfg.window_insns = 120_000;
            let mut e = AbEnvironment::new(profile, cfg, 99).expect("environment builds");
            let mut ab = AbTestConfig::fast_test();
            ab.max_samples = 6_000;
            let tester = AbTester::new(ab, PerformanceMetric::Mips);
            let r = tester.run(&mut e, &production, setting).expect("test runs");
            out.push_str(&format!(
                "    {:<32} {:>6} samples -> {:?}\n",
                label, r.samples, r.verdict
            ));
        }
    }
    out.push_str(
        "  (big effects decide in a handful of batches; the null runs to the CI-width\n   stop or the sample cap — the paper's 30k-observation give-up rule)\n",
    );
    out
}

/// Metric ablation: MIPS vs QPS on Cache2, where the paper calls MIPS
/// invalid, and on Web, where MIPS∝QPS was verified.
pub fn metric_choice() -> String {
    let mut out = String::from("Ablation C — MIPS vs QPS metric (Sec. 7 extension)\n");
    for (svc, knob_line) in [
        (Microservice::Web, "knobs = thp"),
        (Microservice::Cache2, "knobs = core_frequency"),
    ] {
        for metric in ["mips", "qps"] {
            let text = format!(
                "microservice = {}\n{}\nmetric = {}\nseed = 55\n",
                svc.name().to_lowercase(),
                knob_line,
                metric
            );
            let input = InputFile::parse(&text).expect("valid input");
            let mut cfg = UskuConfig::fast_test();
            cfg.validate_days = 0.0;
            let report = Usku::with_config(input, cfg).run().expect("µSKU runs");
            out.push_str(&format!(
                "  {:<8} metric={:<5} -> {} tests, gain vs production {}\n",
                svc.name(),
                metric,
                report.map.test_count(),
                pct(report.soft_sku.gain_vs_production),
            ));
        }
    }
    out.push_str(
        "  (recommended: MIPS for Web/Ads — verified proportional to QPS; QPS for the\n   Cache tiers, whose exception handlers make instruction counts load-dependent)\n",
    );
    out
}

/// Interaction ablation: independent composition vs exhaustive joint search
/// on a knob pair with a genuine interaction — CDP and prefetchers both
/// spend Web-Broadwell's scarce memory bandwidth, so their gains do not add.
pub fn knob_interactions() -> String {
    let mut out = String::from(
        "Ablation D — knob interactions on Web (Broadwell): CDP x prefetchers
",
    );
    let profile = Microservice::Web
        .profile(PlatformKind::Broadwell16)
        .expect("supported");
    let production = profile.production_config.clone();
    let space = softsku_knobs::KnobSpace::for_platform(&production.platform, profile.constraints);
    let knobs = [Knob::Cdp, Knob::Prefetcher];
    let tester = AbTester::new(AbTestConfig::fast_test(), PerformanceMetric::Mips);

    let (mut e, sched) = env(Microservice::Web, PlatformKind::Broadwell16, 401);
    let ind =
        independent_sweep(&tester, &mut e, &production, &space, &knobs, sched).expect("sweep runs");
    let additive = additive_prediction(&ind.selected).expect("independent gains add");

    // Measure the independent composition jointly.
    let joint_label = KnobSetting::Thp(production.thp);
    let composed = tester
        .run_config(&mut e, &production, &ind.best_config, false, joint_label)
        .expect("joint measurement runs");
    let composed_gain = composed.relative_diff().unwrap_or(0.0);

    let (mut e2, sched) = env(Microservice::Web, PlatformKind::Broadwell16, 402);
    let exh = exhaustive_sweep(&tester, &mut e2, &production, &space, &knobs, 80, sched)
        .expect("sweep runs");
    let exh_gain = exh
        .selected
        .iter()
        .find_map(|s| match s.gain {
            SelectedGain::Joint(g) => Some(g),
            _ => None,
        })
        .unwrap_or(0.0);

    out.push_str(&format!(
        "  independent winners composed: measured {} (additive prediction {})
",
        pct(composed_gain),
        pct(additive)
    ));
    out.push_str(&format!(
        "  exhaustive joint optimum:     measured {} over {} joint tests
",
        pct(exh_gain),
        exh.map.test_count()
    ));
    out.push_str(&format!(
        "  independent cost: {} tests / exhaustive cost: {} tests
",
        ind.map.test_count(),
        exh.map.test_count()
    ));
    out.push_str(
        "  (the paper's Sec. 7 point: per-knob gains are not strictly additive, and the
   exhaustive search that could exploit interactions is combinatorially priced)
",
    );
    out
}

/// All ablations, used by the `repro` binary.
pub fn all() -> String {
    let mut out = search_strategies();
    out.push('\n');
    out.push_str(&noise_vs_samples());
    out.push('\n');
    out.push_str(&metric_choice());
    out.push('\n');
    out.push_str(&knob_interactions());
    let _ = SweepConfig::Independent; // referenced for doc completeness
    out
}
