//! Regeneration of the µSKU evaluation artifacts (Fig. 13–19).

use crate::common::{mips_for, pct};
use softsku_archsim::cache::CdpPartition;
use softsku_archsim::pagemap::ThpMode;
use softsku_archsim::platform::PlatformKind;
use softsku_archsim::prefetch::PrefetcherConfig;
use softsku_workloads::Microservice;
use usku::{AbTestConfig, InputFile, Usku, UskuConfig};

/// The three µSKU evaluation targets (paper Sec. 5).
pub fn eval_targets() -> [(Microservice, PlatformKind, &'static str); 3] {
    [
        (Microservice::Web, PlatformKind::Skylake18, "Web (Skylake)"),
        (
            Microservice::Web,
            PlatformKind::Broadwell16,
            "Web (Broadwell)",
        ),
        (Microservice::Ads1, PlatformKind::Skylake18, "Ads1"),
    ]
}

/// Fig. 13: the µSKU component pipeline, traced on a tiny real run.
pub fn fig13() -> String {
    let mut out = String::from("Fig. 13 — µSKU system design (pipeline trace)\n");
    out.push_str("  input file        : microservice=web, platform=skylake18, sweep=independent\n");
    let input = InputFile::parse(
        "microservice = web\nplatform = skylake18\nsweep = independent\nknobs = thp\nseed = 17\n",
    )
    .expect("valid input");
    out.push_str("  input-file parser : parsed and validated against the workload registry\n");
    let mut cfg = UskuConfig::fast_test();
    cfg.abtest = AbTestConfig::fast_test();
    let report = Usku::with_config(input, cfg).run().expect("pipeline runs");
    out.push_str(&format!(
        "  A/B configurator  : planned {} tests over the gated knob space\n",
        report.map.test_count()
    ));
    out.push_str(&format!(
        "  A/B tester        : {} samples, {} QoS discards, {} reboot skips\n",
        report.map.sample_count(),
        report.map.qos_discards(),
        report.map.reboot_skips()
    ));
    out.push_str(&format!(
        "  soft-SKU generator: composed {} selections, {} vs production\n",
        report.soft_sku.selections.len(),
        pct(report.soft_sku.gain_vs_production)
    ));
    out
}

/// Fig. 14a/b: core and uncore frequency scaling.
pub fn fig14() -> String {
    let mut out = String::from("Fig. 14a — perf gain over 1.6 GHz core frequency\n");
    for (svc, plat, label) in eval_targets() {
        let prod = svc.production_config(plat).expect("supported");
        let mut base_cfg = prod.clone();
        base_cfg.core_freq_ghz = 1.6;
        let base = mips_for(svc, plat, &base_cfg);
        out.push_str(&format!("  {label:<16}"));
        for f in [1.7, 1.8, 1.9, 2.0, 2.1, 2.2] {
            let mut cfg = prod.clone();
            cfg.core_freq_ghz = f;
            out.push_str(&format!(
                " {f:.1}:{}",
                pct(mips_for(svc, plat, &cfg) / base - 1.0)
            ));
        }
        out.push('\n');
    }
    out.push_str("  (paper: monotone gains, diminishing beyond 1.9 GHz; max is best)\n");
    out.push_str("Fig. 14b — perf gain over 1.4 GHz uncore frequency\n");
    for (svc, plat, label) in eval_targets() {
        let prod = svc.production_config(plat).expect("supported");
        let mut base_cfg = prod.clone();
        base_cfg.uncore_freq_ghz = 1.4;
        let base = mips_for(svc, plat, &base_cfg);
        out.push_str(&format!("  {label:<16}"));
        for f in [1.5, 1.6, 1.7, 1.8] {
            let mut cfg = prod.clone();
            cfg.uncore_freq_ghz = f;
            out.push_str(&format!(
                " {f:.1}:{}",
                pct(mips_for(svc, plat, &cfg) / base - 1.0)
            ));
        }
        out.push('\n');
    }
    out.push_str("  (paper: Ads1 is the most uncore-sensitive; max is best)\n");
    out
}

/// Fig. 15: core-count scaling (Ads1 excluded: QoS).
pub fn fig15() -> String {
    let mut out = String::from(
        "Fig. 15 — throughput vs physical cores, normalized to 2 cores (ideal = n/2)\n",
    );
    for (svc, plat, label) in [
        (Microservice::Web, PlatformKind::Skylake18, "Web (Skylake)"),
        (
            Microservice::Web,
            PlatformKind::Broadwell16,
            "Web (Broadwell)",
        ),
    ] {
        let prod = svc.production_config(plat).expect("supported");
        let mut two = prod.clone();
        two.active_cores = 2;
        let base = mips_for(svc, plat, &two);
        out.push_str(&format!("  {label:<16}"));
        let max = plat.spec().total_cores();
        for n in [2u32, 4, 6, 8, 12, 16, 18] {
            if n > max {
                continue;
            }
            let mut cfg = prod.clone();
            cfg.active_cores = n;
            out.push_str(&format!(
                " {n}c:{:.2}x(ideal {:.1}x)",
                mips_for(svc, plat, &cfg) / base,
                n as f64 / 2.0
            ));
        }
        out.push('\n');
    }
    out.push_str("  (Ads1 excluded: its load-balancer design fails QoS below full core count)\n");
    out.push_str("  (paper: near-linear to ~8 cores, then LLC interference bends the curve)\n");
    out
}

/// Fig. 16: CDP way-partition sweep.
pub fn fig16() -> String {
    let mut out = String::from("Fig. 16 — perf gain over CDP-off for {data, code} LLC ways\n");
    for (svc, plat, label) in eval_targets() {
        let prod = svc.production_config(plat).expect("supported");
        let base = mips_for(svc, plat, &prod);
        out.push_str(&format!("  {label}:\n   "));
        for p in CdpPartition::sweep(prod.llc_ways_enabled) {
            let mut cfg = prod.clone();
            cfg.cdp = Some(p);
            out.push_str(&format!(
                " {p}:{}",
                pct(mips_for(svc, plat, &cfg) / base - 1.0)
            ));
        }
        out.push('\n');
    }
    out.push_str(
        "  (paper: Web-Skylake peaks near {6,5} at +4.5%; Ads1 near {9,2} at +2.5%;\n   Web-Broadwell gains nothing — memory bandwidth saturated)\n",
    );
    out
}

/// Fig. 17: prefetcher configuration sweep.
pub fn fig17() -> String {
    let mut out = String::from("Fig. 17 — perf gain over all-prefetchers-off\n");
    for (svc, plat, label) in eval_targets() {
        let prod = svc.production_config(plat).expect("supported");
        let mut off = prod.clone();
        off.prefetchers = PrefetcherConfig::all_off();
        let base = mips_for(svc, plat, &off);
        out.push_str(&format!("  {label}:\n   "));
        for pc in PrefetcherConfig::sweep() {
            let mut cfg = prod.clone();
            cfg.prefetchers = pc;
            out.push_str(&format!(
                " [{pc}]:{}",
                pct(mips_for(svc, plat, &cfg) / base - 1.0)
            ));
        }
        out.push('\n');
    }
    out.push_str(
        "  (paper: prefetchers help Web-Skylake/Ads1; Web-Broadwell is bandwidth-bound and\n   prefers them off — ~3% over its production config)\n",
    );
    out
}

/// Fig. 18a/b: THP modes and SHP counts.
pub fn fig18() -> String {
    let mut out = String::from("Fig. 18a — perf gain over THP=madvise\n");
    for (svc, plat, label) in eval_targets() {
        let prod = svc.production_config(plat).expect("supported");
        let base = mips_for(svc, plat, &prod);
        out.push_str(&format!("  {label:<16}"));
        for mode in [ThpMode::AlwaysOn, ThpMode::NeverOn] {
            let mut cfg = prod.clone();
            cfg.thp = mode;
            out.push_str(&format!(
                " {mode}:{}",
                pct(mips_for(svc, plat, &cfg) / base - 1.0)
            ));
        }
        out.push('\n');
    }
    out.push_str("  (paper: only Web-Skylake gains from always-on, ≈+1.9%)\n");
    out.push_str("Fig. 18b — perf gain over 0 SHPs (Web only; Ads1 never calls the APIs)\n");
    for (svc, plat, label) in [
        (Microservice::Web, PlatformKind::Skylake18, "Web (Skylake)"),
        (
            Microservice::Web,
            PlatformKind::Broadwell16,
            "Web (Broadwell)",
        ),
    ] {
        let prod = svc.production_config(plat).expect("supported");
        let mut none = prod.clone();
        none.shp_pages = 0;
        let base = mips_for(svc, plat, &none);
        out.push_str(&format!("  {label:<16}"));
        for shp in (100..=600).step_by(100) {
            let mut cfg = prod.clone();
            cfg.shp_pages = shp;
            out.push_str(&format!(
                " {shp}:{}",
                pct(mips_for(svc, plat, &cfg) / base - 1.0)
            ));
        }
        out.push('\n');
    }
    out.push_str("  (paper sweet spots: 300 on Skylake, 400 on Broadwell; production 200/488)\n");
    out
}

/// Fig. 19: full µSKU runs — soft SKU vs stock and hand-tuned production.
///
/// `full` uses paper-scale sample budgets; the fast path keeps the repro
/// binary's default runtime reasonable.
pub fn fig19(full: bool) -> String {
    let mut out =
        String::from("Fig. 19 — µSKU soft-SKU gains (vs stock / vs hand-tuned production)\n");
    let paper = [(6.2, 4.5), (7.2, 3.0), (2.5, 2.5)];
    for (i, (svc, plat, label)) in eval_targets().into_iter().enumerate() {
        let text = format!(
            "microservice = {}\nplatform = {}\nsweep = independent\nseed = 97\n",
            svc.name().to_lowercase(),
            format!("{plat}").to_lowercase()
        );
        let input = InputFile::parse(&text).expect("valid input");
        let mut cfg = if full {
            UskuConfig::default()
        } else {
            UskuConfig::fast_test()
        };
        if !full {
            cfg.validate_days = 0.5;
        }
        let report = Usku::with_config(input, cfg).run().expect("µSKU run");
        out.push_str(&format!(
            "  {:<16} vs stock {}   vs production {}   (paper: +{:.1}% / +{:.1}%)\n",
            label,
            pct(report.soft_sku.gain_vs_stock),
            pct(report.soft_sku.gain_vs_production),
            paper[i].0,
            paper[i].1
        ));
        for selection in &report.soft_sku.selections {
            out.push_str(&format!("      {selection:.1}\n"));
        }
        if let Some(v) = &report.validation {
            out.push_str(&format!(
                "      fleet validation: {} QPS across {} pushes (stable: {})\n",
                pct(v.relative_gain),
                v.code_pushes,
                v.stable_across_days
            ));
        }
        out.push_str(&format!(
            "      search: {} tests, {} samples, {:.1} simulated hours\n",
            report.map.test_count(),
            report.map.sample_count(),
            report.search_time_s / 3600.0
        ));
    }
    out.push_str("  (shape under test: every target gains; Web gains most, Ads1 least)\n");
    out
}
