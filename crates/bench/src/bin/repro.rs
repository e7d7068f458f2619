//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p softsku-bench --release --bin repro -- all
//! cargo run -p softsku-bench --release --bin repro -- fig16 fig17
//! cargo run -p softsku-bench --release --bin repro -- --full fig19
//! ```

use softsku_bench::{Experiment, EXPERIMENTS};
use softsku_telemetry::Stopwatch;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let ids: Vec<String> = args.into_iter().filter(|a| a != "--full").collect();
    let valid = || {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        ids.join(" ")
    };
    if ids.is_empty() {
        eprintln!("usage: repro [--full] <experiment-id>... | all");
        eprintln!("experiments: {}", valid());
        std::process::exit(2);
    }
    let selected: Vec<Experiment> = if ids.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        let mut out = Vec::new();
        for id in &ids {
            let Some(&experiment) = EXPERIMENTS.iter().find(|&&(known, _)| known == id) else {
                eprintln!("unknown experiment {id:?}; valid: {}", valid());
                std::process::exit(2);
            };
            out.push(experiment);
        }
        out
    };
    for (id, run) in selected {
        let clock = Stopwatch::start();
        let output = run(full);
        println!("==================== {id} ====================");
        println!("{output}");
        println!("  [{id} regenerated in {:.1}s]", clock.elapsed_s());
        println!();
    }
}
