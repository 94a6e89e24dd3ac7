//! Experiment harness: the paper's evaluation (Section 5) as runnable
//! sweeps.
//!
//! Every table and figure of the paper maps to a function here and a
//! binary under `src/bin/`:
//!
//! | Paper artefact | Function | Binary |
//! |---|---|---|
//! | Table 1 (simulation parameters) | [`table1_rows`] | `table1` |
//! | Fig. 7(a) traffic vs. update interval | [`fig7a`] | `fig7 a` |
//! | Fig. 7(b) traffic vs. query interval | [`fig7b`] | `fig7 b` |
//! | Fig. 7(c) traffic vs. cache number | [`fig7c`] | `fig7 c` |
//! | Fig. 8(a–c) latency, same sweeps | [`fig8a`]/[`fig8b`]/[`fig8c`] | `fig8 a|b|c` |
//! | Fig. 9(a/b) impact of invalidation TTL | [`fig9`] | `fig9` |
//!
//! Each sweep runs the full simulation once per (strategy, x-value, seed)
//! and averages across seeds. `RunOptions::quick()` uses shortened runs
//! for interactive use; `RunOptions::full()` reproduces the paper's five
//! simulated hours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cli;
mod figures;
pub mod matrix;
mod report;
pub mod scenario;
mod sweep;

pub use analysis::{
    analyze_file, analyze_journal, crosscheck, crosscheck_consistency, crosscheck_explain,
    explain_stale_serves, render_analysis, render_consistency, render_explain, render_health,
    ConsistencyReportTotals, ConsistencyTimeline, DivergenceSample, FrameBirth, Incident,
    NodeHealth, ProvenanceGraph, ReportTotals, SpanTotals, TraceAnalysis,
};
pub use figures::{fig7a, fig7b, fig7c, fig8a, fig8b, fig8c, fig9, table1_rows, FigureData};
pub use matrix::{
    compare_matrix, gate_violations, invariant_breaches, run_cell, run_matrix, CellRegression,
    GateAxis, MatrixCell, MatrixReport, MATRIX_SCHEMA,
};
pub use report::{render_series_table, render_table, write_csv};
pub use scenario::{GateFloors, MobilitySpec, Scenario, ScenarioError, SCENARIO_SCHEMA};
pub use sweep::{
    extended_strategies, paper_strategies, run_parallel, sweep, MeasuredPoint, RunOptions, Series,
    StrategySpec,
};
