//! Figure/table regeneration harness for the SoftSKU reproduction.
//!
//! Every table and figure from the paper's evaluation has a function here
//! that regenerates it against the simulator and prints the measured series
//! next to the paper's reference values. The `repro` binary dispatches on
//! experiment ids (`table1`, `fig1` … `fig19`, `all`). The `bench` binary
//! runs the timed [`suites`] that measure the simulator's own speed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod characterization;
pub mod common;
pub mod knobsweeps;
pub mod suites;

/// One experiment: its id and the routine that regenerates it and returns
/// its printable output. The flag selects paper-scale budgets for the µSKU
/// end-to-end runs.
pub type Experiment = (&'static str, fn(bool) -> String);

/// Every experiment in paper order.
pub const EXPERIMENTS: [Experiment; 23] = [
    ("table1", |_| characterization::table1()),
    ("fig1", |_| characterization::fig1()),
    ("table2", |_| characterization::table2()),
    ("fig2", |_| characterization::fig2()),
    ("fig3", |_| characterization::fig3()),
    ("fig4", |_| characterization::fig4()),
    ("fig5", |_| characterization::fig5()),
    ("fig6", |_| characterization::fig6()),
    ("fig7", |_| characterization::fig7()),
    ("fig8", |_| characterization::fig8()),
    ("fig9", |_| characterization::fig9()),
    ("fig10", |_| characterization::fig10()),
    ("fig11", |_| characterization::fig11()),
    ("fig12", |_| characterization::fig12()),
    ("table3", |_| characterization::table3()),
    ("fig13", |_| knobsweeps::fig13()),
    ("fig14", |_| knobsweeps::fig14()),
    ("fig15", |_| knobsweeps::fig15()),
    ("fig16", |_| knobsweeps::fig16()),
    ("fig17", |_| knobsweeps::fig17()),
    ("fig18", |_| knobsweeps::fig18()),
    ("fig19", knobsweeps::fig19),
    ("ablations", |_| ablation::all()),
];
