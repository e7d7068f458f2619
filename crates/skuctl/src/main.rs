//! `skuctl` — the soft-SKU command line.
//!
//! `skuctl tune` runs the µSKU pipeline on a paper-style input file. The
//! other subcommands run a deterministic traced scenario (everything is a
//! pure function of `(config, seed)`, so two invocations with the same
//! flags print the same bytes) and answer questions about it; `spans`,
//! `cpi`, `ledger` and `export` inspect the full tune → compose → staged
//! rollout → drift → re-tune lifecycle:
//!
//! ```text
//! skuctl tune <file.usku> [--fast] [--render-map]
//!                         # µSKU: tune one service, print the soft-SKU report
//! skuctl spans  [flags]   # render the sim-time span tree
//! skuctl cpi    [flags]   # per-arm CPI stacks: which TMAM bound each knob win relieved
//! skuctl ledger [flags]   # the tiered-retention rollout.* ODS ledger
//! skuctl export [flags]   # write Chrome trace-event JSON (Perfetto-loadable)
//! skuctl chaos  [flags]   # replay the seeded chaos campaign: faults vs reactions
//! skuctl mesh   [flags]   # request-graph tuning: critical-path tiers, mesh.* ledger
//! skuctl slo    [flags]   # SLO-gated mesh canary: burn-rate timeline, exemplar spans
//! skuctl keys             # dump the ledger-key registry
//!
//! flags: --service <name>  spans|cpi|ledger|export: microservice to tune  [web]
//!        --seed <u64>      every scenario command: base seed              [21]
//!        --workers <n>     every scenario command: scheduler workers      [machine width]
//!        --out <path>      export|slo: export path                        [trace.json]
//!        --fast            tune: small A/B budgets, one validation day
//!        --render-map      tune: also print the design-space map
//!        --smoke           print a trailing "smoke ok" marker for CI
//! ```
//!
//! A flag the chosen command does not read is rejected (usage, exit 2),
//! never silently ignored.
//!
//! The `tune` input file format (paper Sec. 4):
//!
//! ```text
//! microservice = web          # web|feed1|feed2|ads1|ads2|cache1|cache2
//! platform     = skylake18    # skylake18|skylake20|broadwell16
//! sweep        = independent  # independent|exhaustive|hill_climbing
//! knobs        = cdp, thp     # optional subset
//! metric       = mips         # mips|qps
//! seed         = 42
//! ```

use softsku_knobs::Knob;
use softsku_rollout::{
    demo_campaign, CoordinatorConfig, FleetCoordinator, LifecycleReport, PipelineConfig,
    RolloutPipeline,
};
use softsku_telemetry::trace::{AttrValue, TraceSink, TraceSpan};
use softsku_telemetry::{KeyKind, LedgerDomain, LedgerKey, Ods, SeriesKey};
use softsku_workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;
use usku::{InputFile, Usku, UskuConfig};

type BoxError = Box<dyn std::error::Error>;

const USAGE: &str = "usage: skuctl tune <file.usku> [--fast] [--render-map] [--smoke]
       skuctl <spans|cpi|ledger> [--service <name>] [--seed <u64>] [--workers <n>] [--smoke]
       skuctl export [--service <name>] [--seed <u64>] [--workers <n>] [--out <path>] [--smoke]
       skuctl <chaos|mesh> [--seed <u64>] [--workers <n>] [--smoke]
       skuctl slo [--seed <u64>] [--workers <n>] [--out <path>] [--smoke]
       skuctl keys [--smoke]";

/// The flags `command` reads, or `None` for an unknown command.
fn accepted_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "tune" => &["--fast", "--render-map", "--smoke"],
        "spans" | "cpi" | "ledger" => &["--service", "--seed", "--workers", "--smoke"],
        "export" => &["--service", "--seed", "--workers", "--out", "--smoke"],
        "chaos" | "mesh" => &["--seed", "--workers", "--smoke"],
        "slo" => &["--seed", "--workers", "--out", "--smoke"],
        "keys" => &["--smoke"],
        _ => return None,
    })
}

/// Parsed command line.
struct Args {
    command: String,
    /// The `tune` input file (empty for every other command).
    input: String,
    service: Microservice,
    seed: u64,
    workers: NonZeroUsize,
    out: String,
    fast: bool,
    render_map: bool,
    smoke: bool,
}

/// Parses the arguments after the program name.
fn parse_args(argv: &[String]) -> Result<Args, BoxError> {
    let mut args = argv.iter().cloned();
    let command = args.next().ok_or(USAGE)?;
    let accepted =
        accepted_flags(&command).ok_or_else(|| format!("unknown command {command}\n{USAGE}"))?;
    let input = if command == "tune" {
        args.next()
            .ok_or_else(|| format!("tune needs an input file\n{USAGE}"))?
    } else {
        String::new()
    };
    let mut parsed = Args {
        command,
        input,
        service: Microservice::Web,
        seed: 21,
        workers: usku::scheduler::default_workers(),
        out: "trace.json".to_string(),
        fast: false,
        render_map: false,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| -> Result<String, BoxError> {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}").into())
        };
        if !accepted.contains(&flag.as_str()) {
            return Err(format!("{} does not take {flag}\n{USAGE}", parsed.command).into());
        }
        match flag.as_str() {
            "--service" => parsed.service = Microservice::from_name(&value("--service")?)?,
            "--seed" => parsed.seed = value("--seed")?.parse()?,
            "--workers" => {
                parsed.workers = NonZeroUsize::new(value("--workers")?.parse()?)
                    .ok_or("--workers must be positive")?;
            }
            "--out" => parsed.out = value("--out")?,
            "--fast" => parsed.fast = true,
            "--render-map" => parsed.render_map = true,
            "--smoke" => parsed.smoke = true,
            other => unreachable!("accepted_flags lists {other}, which is not handled"),
        }
    }
    Ok(parsed)
}

/// The deterministic lifecycle run `spans`, `cpi`, `ledger` and `export`
/// inspect: small A/B budgets (the same shape the integration tests
/// replay) with code churn hot enough that the drift monitor fires, so the
/// trace exercises the whole tune → compose → rollout → drift → re-tune
/// story.
fn traced_run(args: &Args) -> Result<(LifecycleReport, TraceSink), BoxError> {
    let mut config = PipelineConfig::fast_test(args.seed);
    config.abtest.min_samples = 24;
    config.abtest.max_samples = 240;
    config.abtest.batch = 12;
    config.env.window_insns = 12_000;
    config.staged.replicas = 20;
    config.staged.window_insns = 6_000;
    config.rollout.ticks_per_stage = 12;
    config.rollout.mad_window = 8;
    config.drift.window_ticks = 12;
    config.drift.max_windows = 4;
    config.staged.pushes_per_hour = 4.0;
    config.staged.push_magnitude = 0.005;
    config.staged.drift_per_push = 0.002;
    let config = config.with_workers(args.workers);

    let mut sink = TraceSink::new();
    let report = RolloutPipeline::new(config).run_traced(
        args.service,
        PlatformKind::Skylake18,
        &[Knob::Thp, Knob::Shp],
        &mut sink,
    )?;
    Ok((report, sink))
}

/// `skuctl tune`: run the µSKU pipeline (A/B sweep, design-space map, soft
/// SKU, validation) on a paper-style input file and print its report.
fn cmd_tune(args: &Args) -> Result<(), BoxError> {
    let path = &args.input;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let input = InputFile::parse(&text)?;
    let config = if args.fast {
        let mut c = UskuConfig::fast_test();
        c.validate_days = 1.0;
        c
    } else {
        UskuConfig::default()
    };
    eprintln!(
        "skuctl: tuning {} on {} ({} sweep){}",
        input.microservice,
        input.platform,
        input.sweep,
        if args.fast { " [fast budgets]" } else { "" }
    );
    let report = Usku::with_config(input, config).run()?;
    println!("{}", report.render());
    if args.render_map {
        println!("{}", report.map.render());
    }
    Ok(())
}

fn attr_str<'a>(sink: &'a TraceSink, span: &TraceSpan, key: &str) -> Option<&'a str> {
    match sink.find_attr(span, key) {
        Some(AttrValue::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn attr_f64(sink: &TraceSink, span: &TraceSpan, key: &str) -> Option<f64> {
    match sink.find_attr(span, key) {
        Some(AttrValue::F64(v)) => Some(*v),
        _ => None,
    }
}

/// `skuctl spans`: the indented span tree, one line per span.
fn cmd_spans(sink: &TraceSink) {
    print!("{}", sink.render_tree());
    println!(
        "{} spans, {} counters, {} tracks",
        sink.spans().len(),
        sink.counters().len(),
        sink.tracks().len()
    );
}

/// `skuctl cpi`: every A/B knob win with its per-arm CPI-stack verdict —
/// the TMAM bound the candidate relieved (paper Figs. 7-10).
fn cmd_cpi(sink: &TraceSink) {
    println!(
        "{:<8} {:<10} {:<22} {:>8} {:>9}  relieved bound",
        "service", "knob", "setting", "gain", "p-value"
    );
    let mut wins = 0usize;
    let mut attributed = 0usize;
    for span in sink.spans() {
        if sink.cat(span) != "abtest" || attr_str(sink, span, "verdict") != Some("better") {
            continue;
        }
        wins += 1;
        let bound = match (
            attr_str(sink, span, "tmam.relieved"),
            attr_f64(sink, span, "tmam.relieved_drop"),
        ) {
            (Some(b), Some(d)) => {
                attributed += 1;
                format!("{b} (-{:.1} pp)", 100.0 * d)
            }
            _ => "unattributed".to_string(),
        };
        println!(
            "{:<8} {:<10} {:<22} {:>7.2}% {:>9.2e}  {}",
            attr_str(sink, span, "service").unwrap_or("?"),
            attr_str(sink, span, "knob").unwrap_or("?"),
            sink.name(span),
            100.0 * attr_f64(sink, span, "gain").unwrap_or(0.0),
            attr_f64(sink, span, "p_value").unwrap_or(f64::NAN),
            bound,
        );
    }
    println!("{wins} knob wins, {attributed} attributed to a TMAM bound");
}

/// `skuctl ledger`: the tiered rollout ledger — per series, how many
/// observations live at raw resolution vs folded into each retention tier.
fn cmd_ledger(report: &LifecycleReport) {
    let ods = &report.rollout_ods;
    println!(
        "rollout ledger: {} series, {} retention tiers",
        ods.series_count(),
        ods.tier_count()
    );
    for key in ods.keys() {
        let raw = ods.raw_points(key);
        let tiers: Vec<String> = (0..ods.tier_count())
            .map(|t| format!("t{t}:{}", ods.tier_points(key, t).len()))
            .collect();
        let last = raw
            .last()
            .map(|(t, value)| format!("last {value:.3} @ {t:.1}s"))
            .unwrap_or_else(|| "folded".to_string());
        println!(
            "  {:<24} {:>4} obs  raw:{} {}  {}",
            key.to_string(),
            ods.len(key),
            raw.len(),
            tiers.join(" "),
            last
        );
    }
}

/// `skuctl export`: Chrome trace-event JSON, loadable in Perfetto or
/// `chrome://tracing`.
fn cmd_export(sink: &TraceSink, out: &str) -> Result<(), BoxError> {
    let json = sink.chrome_trace().render_pretty();
    std::fs::write(out, &json)?;
    println!(
        "wrote {out}: {} events ({} bytes)",
        sink.spans().len() + sink.counters().len() + sink.tracks().len(),
        json.len()
    );
    Ok(())
}

/// `skuctl chaos`: replay the seeded demo chaos campaign through the fleet
/// coordinator and print its timeline — injected faults on the left,
/// coordinator reactions on the right — straight from the `chaos.*` and
/// `coordinator.*` ledger series. Deterministic: same seed, same bytes.
fn cmd_chaos(args: &Args) -> Result<(), BoxError> {
    let (topology, chaos, plans) = demo_campaign(args.seed)?;
    let mut sink = TraceSink::new();
    let report = FleetCoordinator::new(CoordinatorConfig::fast_test())
        .with_workers(args.workers)
        .run_traced(&topology, chaos, plans, args.seed, &mut sink)?;

    // One timeline row per ledger entry: (time, is-fault, text). The ledger
    // is appended in canonical tick order, so a stable sort by time keeps
    // same-tick entries in injection-before-reaction order.
    let mut rows: Vec<(f64, bool, String)> = Vec::new();
    for key in report.ledger.keys() {
        let fault = key.metric().starts_with(LedgerDomain::Chaos.prefix());
        if !fault && !key.metric().starts_with(LedgerDomain::Coordinator.prefix()) {
            continue;
        }
        for &(t, value) in report.ledger.raw_points(key) {
            rows.push((
                t,
                fault,
                format!("{} {} [{value:.2}]", key.metric(), key.entity()),
            ));
        }
    }
    rows.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| b.1.cmp(&a.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    println!(
        "{:>10}  {:<42}  coordinator reaction",
        "sim time", "injected fault"
    );
    for (t, fault, text) in &rows {
        if *fault {
            println!("{t:>9.0}s  {text:<42}");
        } else {
            println!("{t:>9.0}s  {:<42}  {text}", "");
        }
    }
    println!();
    print!("{}", report.render());
    Ok(())
}

/// The frozen configuration `mesh` and `slo` share (and the acceptance
/// test pins): at seed 21 the two rules provably part ways.
fn mesh_config(seed: u64) -> softsku_mesh::MeshConfig {
    softsku_mesh::MeshConfig {
        requests: 600,
        window_insns: 60_000,
        seed,
        ..softsku_mesh::MeshConfig::default()
    }
}

/// `skuctl mesh`: tune the colocation-mix request graph under both
/// objectives — the paper's per-tier MIPS rule vs joint end-to-end p99 —
/// then render the critical-path tier attribution and the `mesh.*`
/// ledger the winning run recorded. Deterministic: same seed, same bytes.
fn cmd_mesh(args: &Args) -> Result<(), BoxError> {
    let config = mesh_config(args.seed);
    let graph = softsku_mesh::colocation_mix()?;
    let tuner = softsku_mesh::MeshTuner::with_default_candidates(&graph, config)?;
    let workers = args.workers.get();
    let private = tuner.tune(softsku_mesh::MeshObjective::PerTierMips, workers)?;
    let joint = tuner.tune(softsku_mesh::MeshObjective::GraphP99, workers)?;
    println!(
        "graph {} — {} tiers, {} edges, seed {}, {} requests @ {:.0}/s",
        graph.name(),
        graph.tiers().len(),
        graph.edges().len(),
        args.seed,
        config.requests,
        config.arrival_rate_hz
    );
    println!(
        "per-tier MIPS rule: {:?}  p99 {:8.3} ms  ({} evals)",
        private.labels(),
        private.report.p99_s * 1e3,
        private.evaluated
    );
    println!(
        "joint graph rule:   {:?}  p99 {:8.3} ms  ({} evals)",
        joint.labels(),
        joint.report.p99_s * 1e3,
        joint.evaluated
    );

    println!("\ncritical path over the slowest 1 % (joint winner):");
    println!(
        "{:<10} {:<8} {:>8} {:>11} {:>10}  sku",
        "tier", "service", "share", "sojourn", "retention"
    );
    for (tier, sel) in joint.report.tiers.iter().zip(&joint.selections) {
        println!(
            "{:<10} {:<8} {:>7.1}% {:>8.3} ms {:>9.1}%  {}",
            tier.name,
            graph
                .tiers()
                .iter()
                .find(|t| t.name == tier.name)
                .map(|t| t.service.name())
                .unwrap_or("?"),
            tier.critical_share * 100.0,
            (tier.mean_wait_s + tier.mean_service_s) * 1e3,
            tier.retention * 100.0,
            sel.label
        );
    }
    println!(
        "{:<10} {:<8} {:>7.1}%",
        "network",
        "-",
        joint.report.network_critical_share * 100.0
    );

    // Record the winning run into the ODS ledger and read the mesh.*
    // domain back — the rendering below is driven entirely by what the
    // ledger holds, never by hard-coded key spellings.
    let mut ods = Ods::unbounded();
    joint.report.record(&mut ods, 0.0)?;
    println!("\nmesh.* ledger:");
    let keys: Vec<_> = ods.keys().cloned().collect();
    for key in &keys {
        if !key.metric().starts_with(LedgerDomain::Mesh.prefix()) {
            continue;
        }
        let (t, value) = ods.last(key)?;
        println!(
            "  {:<18} {:<16} {value:>12.6} @ {t:.1}s",
            key.metric(),
            key.entity()
        );
    }
    Ok(())
}

/// `skuctl slo`: the SLO-gated canary on the colocation-mix request graph,
/// run twice — once clean, once with a seeded end-to-end p99 regression
/// (20 % of requests served 4× slower at every tier they visit). Renders
/// each campaign's burn-rate timeline straight from the `slo.*` ledger,
/// the guarded p99 margin, and — when the gate blocks — the exemplar span
/// ids that resolve the violation to request subtrees in the Chrome
/// export written to `--out`. Deterministic: same seed, same bytes, for
/// any `--workers`.
fn cmd_slo(args: &Args) -> Result<(), BoxError> {
    let clean = mesh_config(args.seed);
    let mut regressed = clean;
    regressed.regress_frac = 0.2;
    regressed.regress_scale = 4.0;
    let graph = softsku_mesh::colocation_mix()?;
    let workers = args.workers.get();

    for (label, config) in [("clean", clean), ("regressed", regressed)] {
        let canary = softsku_mesh::MeshCanary::new(
            &graph,
            config,
            softsku_mesh::MeshCanaryConfig::default(),
        )?;
        let mut ods = Ods::unbounded();
        let mut sink = TraceSink::new();
        let report = canary.run(workers, &mut ods, &mut sink)?;

        println!(
            "campaign {label}: inject {:.0}% of requests {:.0}x slower",
            config.regress_frac * 100.0,
            config.regress_scale
        );
        println!(
            "  SLO: e2e latency <= {:.3} ms for {:.1}% of requests \
             (threshold = {:.2}x baseline p99 {:.3} ms)",
            report.threshold_s * 1e3,
            100.0 * softsku_mesh::MeshCanaryConfig::default().target,
            softsku_mesh::MeshCanaryConfig::default().threshold_margin,
            report.baseline.p99_s * 1e3,
        );
        println!(
            "  candidate {:?}  canary p99 {:.3} ms vs baseline {:.3} ms",
            report.tuned.labels(),
            report.canary.p99_s * 1e3,
            report.baseline.p99_s * 1e3,
        );

        // Burn-rate timeline, read back from the slo.* ledger series the
        // evaluator appended (never recomputed here): max burn per time
        // bucket, with the alert count on the right.
        let entity = graph.name();
        let fast = ods.raw_points(&SeriesKey::keyed(entity, LedgerKey::SloBurnFast));
        let slow = ods.raw_points(&SeriesKey::keyed(entity, LedgerKey::SloBurnSlow));
        let alerts = ods.raw_points(&SeriesKey::keyed(entity, LedgerKey::SloAlert));
        if let (Some(&(t0, _)), Some(&(t1, _))) = (fast.first(), fast.last()) {
            const BUCKETS: usize = 12;
            let width = ((t1 - t0) / BUCKETS as f64).max(1e-9);
            println!(
                "  {:>9}  {:>9} {:>9}  {:<26} alerts",
                "t", "fast", "slow", "burn (fast, # = 4x)"
            );
            for b in 0..BUCKETS {
                let lo = t0 + b as f64 * width;
                let hi = if b + 1 == BUCKETS {
                    f64::INFINITY
                } else {
                    lo + width
                };
                let in_bucket = |pts: &[(f64, f64)]| {
                    pts.iter()
                        .filter(|(t, _)| *t >= lo && *t < hi)
                        .map(|&(_, v)| v)
                        .fold(0.0f64, f64::max)
                };
                let (bf, bs) = (in_bucket(fast), in_bucket(slow));
                let fired = alerts.iter().filter(|(t, _)| *t >= lo && *t < hi).count();
                let bar = "#".repeat(((bf / 4.0).round() as usize).min(26));
                println!(
                    "  {:>8.0}ms  {bf:>9.1} {bs:>9.1}  {bar:<26} {fired}",
                    lo * 1e3
                );
            }
        }
        let guard = ods.raw_points(&SeriesKey::keyed(entity, LedgerKey::SloGuardP99));
        if let Some(&(_, margin)) = guard.last() {
            println!("  guarded p99 margin: {:+.1}% vs baseline", margin * 100.0);
        }

        match report.blocked_at_s {
            None => println!(
                "  verdict: PROMOTED ({:?} deployed, {} alerts, max sustained {})",
                report.tuned.labels(),
                report.alerts,
                report.max_sustained,
            ),
            Some(t) => {
                let retunes = ods.raw_points(&SeriesKey::keyed(entity, LedgerKey::SloRetune));
                println!(
                    "  verdict: BLOCKED at t={:.1} ms — rollback to {:?}, \
                     re-tune enqueued (burn {:.1})",
                    t * 1e3,
                    report
                        .deployed
                        .iter()
                        .map(|s| s.label.as_str())
                        .collect::<Vec<_>>(),
                    retunes.last().map(|&(_, v)| v).unwrap_or(f64::NAN),
                );
                println!("  p99 violated at t={t:.4}s; offending request subtrees:");
                let ids: Vec<u64> = sink.spans().iter().map(|s| s.id).collect();
                for ex in &report.exemplars {
                    let resolved = ex.span_id != u64::MAX && ids.contains(&ex.span_id);
                    println!(
                        "    span_id {:>6}  latency {:>8.3} ms @ {:.4}s  {}",
                        ex.span_id,
                        ex.latency_s * 1e3,
                        ex.t_s,
                        if resolved {
                            "(in trace export)"
                        } else {
                            "(untraced)"
                        },
                    );
                }
                let json = sink.chrome_trace().render_pretty();
                std::fs::write(&args.out, &json)?;
                println!(
                    "  wrote {}: {} events ({} bytes)",
                    args.out,
                    sink.spans().len() + sink.counters().len() + sink.tracks().len(),
                    json.len()
                );
            }
        }

        // Ledger footprint, enumerated from the registry (CI greps these
        // rows against `skuctl keys`, so spellings can never drift): every
        // ledger-kind slo.* key this campaign appended, with point counts.
        for key in LedgerKey::ALL {
            if key.kind() != KeyKind::Ledger || key.domain() != LedgerDomain::Slo {
                continue;
            }
            let n = ods.len(&SeriesKey::keyed(entity, key));
            println!("  ledger {} {entity} {n}", key.name());
        }
        println!();
    }
    Ok(())
}

/// `skuctl keys`: dump the closed ledger-key registry, one `<kind> <name>`
/// row per [`LedgerKey`], in declaration order. CI greps this instead of
/// hard-coding key spellings, so the workflow can never drift from the
/// registry.
fn cmd_keys() {
    for key in LedgerKey::ALL {
        let kind = match key.kind() {
            KeyKind::Ledger => "ledger",
            KeyKind::Trace => "trace",
        };
        println!("{kind} {}", key.name());
    }
}

fn main() -> Result<(), BoxError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    match args.command.as_str() {
        "tune" => cmd_tune(&args)?,
        "spans" => cmd_spans(&traced_run(&args)?.1),
        "cpi" => cmd_cpi(&traced_run(&args)?.1),
        "ledger" => cmd_ledger(&traced_run(&args)?.0),
        "export" => cmd_export(&traced_run(&args)?.1, &args.out)?,
        "chaos" => cmd_chaos(&args)?,
        "mesh" => cmd_mesh(&args)?,
        "slo" => cmd_slo(&args)?,
        "keys" => cmd_keys(),
        other => unreachable!("parse_args admits no command {other}"),
    }
    if args.smoke {
        println!("smoke ok");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, BoxError> {
        let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&owned)
    }

    #[test]
    fn accepts_every_flag_each_command_reads() {
        let tune = parse(&["tune", "web.usku", "--render-map", "--fast", "--smoke"]).unwrap();
        assert_eq!(tune.input, "web.usku");
        assert!(tune.fast && tune.render_map && tune.smoke);
        for command in ["spans", "cpi", "ledger", "export"] {
            let args = parse(&[
                command,
                "--service",
                "ads1",
                "--seed",
                "7",
                "--workers",
                "2",
            ]);
            let args = args.unwrap();
            assert_eq!(args.service, Microservice::Ads1);
            assert_eq!((args.seed, args.workers.get()), (7, 2));
        }
        for command in ["export", "slo"] {
            assert_eq!(parse(&[command, "--out", "t.json"]).unwrap().out, "t.json");
        }
        for command in ["chaos", "mesh", "slo"] {
            assert!(parse(&[command, "--seed", "21", "--workers", "1", "--smoke"]).is_ok());
        }
        assert!(parse(&["keys", "--smoke"]).unwrap().smoke);
    }

    #[test]
    fn tune_rejects_workers() {
        assert!(parse(&["tune", "web.usku", "--workers", "1"]).is_err());
    }

    #[test]
    fn tune_rejects_seed() {
        assert!(parse(&["tune", "web.usku", "--fast", "--seed", "3"]).is_err());
    }

    #[test]
    fn tune_rejects_service() {
        assert!(parse(&["tune", "web.usku", "--service", "web"]).is_err());
    }

    #[test]
    fn tune_rejects_out() {
        assert!(parse(&["tune", "web.usku", "--out", "t.json"]).is_err());
    }

    #[test]
    fn scenario_commands_reject_fast() {
        for command in [
            "spans", "cpi", "ledger", "export", "chaos", "mesh", "slo", "keys",
        ] {
            assert!(parse(&[command, "--fast"]).is_err(), "{command}");
        }
    }

    #[test]
    fn scenario_commands_reject_render_map() {
        for command in [
            "spans", "cpi", "ledger", "export", "chaos", "mesh", "slo", "keys",
        ] {
            assert!(parse(&[command, "--render-map"]).is_err(), "{command}");
        }
    }

    #[test]
    fn commands_that_write_no_export_reject_out() {
        for command in ["spans", "cpi", "ledger", "chaos", "mesh", "keys"] {
            assert!(parse(&[command, "--out", "t.json"]).is_err(), "{command}");
        }
    }

    #[test]
    fn commands_that_tune_no_named_service_reject_service() {
        for command in ["chaos", "mesh", "slo", "keys"] {
            assert!(parse(&[command, "--service", "web"]).is_err(), "{command}");
        }
    }

    #[test]
    fn keys_rejects_seed_and_workers() {
        assert!(parse(&["keys", "--seed", "21"]).is_err());
        assert!(parse(&["keys", "--workers", "2"]).is_err());
    }

    #[test]
    fn rejects_an_unknown_command_flag_or_positional() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["nosuch"]).is_err());
        assert!(parse(&["tune"]).is_err());
        assert!(parse(&["spans", "--sed", "21"]).is_err());
        assert!(parse(&["spans", "extra"]).is_err());
        assert!(parse(&["spans", "--seed"]).is_err());
    }
}
