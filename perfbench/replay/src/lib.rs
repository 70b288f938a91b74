//! Helpers behind `perfbench/run.py`: the traced per-layer replay of
//! each workload, the closed-loop client that drives `csmaprobe serve`,
//! and the one-shot session reference its table is compared with.
//!
//! The replay calls each layer's public functions from here and records
//! a span around every call ([`trace`], [`layers`]); no crate of the
//! program is instrumented.

pub mod calibrate;
pub mod layers;
pub mod serve;
pub mod sweep;
pub mod trace;
pub mod transient;

use csmaprobe_bench::report::FigureReport;

/// The figure reports a figure-workload replay produced.
pub struct Replay {
    /// One report per figure of the workload, in workload order.
    /// Replayed figures carry only their rows.
    pub reports: Vec<FigureReport>,
    /// Ids of the figures whose rows were rebuilt from replayed cells
    /// (the rest ran whole as `bench.figure` spans).
    pub replayed: Vec<String>,
}

/// A report carrying only a replayed figure's rows.
fn rows_report(id: &str, rows: Vec<Vec<f64>>) -> FigureReport {
    let mut rep = FigureReport::new(id, "", "", &[]);
    rep.rows = rows;
    rep
}
