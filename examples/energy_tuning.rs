//! Energy-efficiency tuning: the paper's Sec. 7 perf-per-watt extension.
//!
//! ```text
//! cargo run --release --example energy_tuning
//! ```
//!
//! The µSKU prototype optimizes throughput only; Sec. 7 notes it "can be
//! extended to perform energy- or power-efficiency optimization". This
//! example sweeps core frequency for Feed2 under both objectives and shows
//! where they disagree: raw throughput always wants the maximum frequency,
//! while perf-per-watt discounts the cubic dynamic-power cost and can settle
//! lower.

use softsku::archsim::engine::Engine;
use softsku::usku::PowerModel;
use softsku::workloads::{Microservice, PlatformKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let service = Microservice::Feed2;
    let profile = service.profile(PlatformKind::Skylake18)?;
    let model = PowerModel::default();

    println!(
        "{:<10} {:>12} {:>10} {:>14} {:>14}",
        "core GHz", "MIPS", "watts", "MIPS (norm)", "MIPS/W (norm)"
    );
    let mut rows = Vec::new();
    for f in [1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2] {
        let mut cfg = profile.production_config.clone();
        cfg.core_freq_ghz = f;
        let engine = Engine::new(cfg.clone(), profile.stream.clone(), 42)?;
        let report = engine.run_window(250_000, profile.peak_utilization)?;
        let watts = model.watts(&cfg, &report, profile.peak_utilization);
        rows.push((f, report.mips_total, report.mips_total / watts, watts));
    }
    let max_tput = rows.iter().map(|r| r.1).fold(f64::MIN, f64::max);
    let max_ppw = rows.iter().map(|r| r.2).fold(f64::MIN, f64::max);
    for (f, tput, ppw, watts) in &rows {
        println!(
            "{:<10.1} {:>12.0} {:>10.1} {:>13.1}% {:>13.1}%",
            f,
            tput,
            watts,
            tput / max_tput * 100.0,
            ppw / max_ppw * 100.0
        );
    }

    let best_tput = rows
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("rows non-empty");
    let best_ppw = rows
        .iter()
        .max_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
        .expect("rows non-empty");
    println!(
        "\nThroughput objective picks {:.1} GHz; perf-per-watt picks {:.1} GHz.",
        best_tput.0, best_ppw.0
    );
    println!(
        "At scale, single-digit perf-per-watt gains translate directly into\n\
         provisioning savings — the paper's motivation for soft SKUs."
    );
    Ok(())
}
