//! Scenario-matrix observatory: sweep the scenario corpus across every
//! strategy × seed cell, emit per-cell snapshots, print the fleet
//! scorecard, and gate regressions against a committed baseline.
//!
//! ```text
//! matrix [--scenarios DIR] [--only NAME] [--smoke] [--out DIR] [--json FILE]
//! matrix --baseline MATRIX_BASELINE.json [--tolerance T] [--wall-tolerance W] ...
//! ```
//!
//! Sweep mode loads every `*.toml` under `--scenarios` (default
//! `scenarios/`), runs each scenario's strategy × seed cells in parallel
//! with profiling on, writes one schema-versioned
//! `MATRIX_<scenario>_<strategy>_s<seed>.json` per cell plus a combined
//! `MATRIX_REPORT.json` under `--out` (default `results/matrix`), and
//! prints the fleet scorecard. Every written cell file is read back and
//! re-parsed, so a malformed snapshot can never reach disk silently.
//! Cells are also checked against their scenario's absolute `[gates]`
//! floors and against the run invariants every cell must satisfy
//! (issued = served + failed for queries and writes, partitions opened
//! = healed, crashes = recoveries); a violation or breach exits 1,
//! naming the cell.
//!
//! The `[gates]` floors of `scenarios/gates/` hold the repository's
//! regression gates. A `min_events_per_sec` floor is wall-clock, so run
//! such a scenario on its own with `--only`: cells swept in parallel
//! share the CPU.
//!
//! `--smoke` shrinks the sweep for CI: the first two scenarios by name,
//! first two strategies and first seed of each, with the horizon cut to
//! six simulated minutes (90 s warm-up).
//!
//! Baseline mode additionally reloads a committed [`MatrixReport`] and
//! compares every baseline cell on **three axes** — events/sec,
//! fresh fraction, p95 latency. Any cell regressing on any axis prints
//! a diff row naming the offending axis and exits 1. `--tolerance`
//! (default 0.02) bounds the two deterministic axes; `--wall-tolerance`
//! (default 0.5) separately bounds the wall-clock throughput axis.
//! Mismatched cell identities exit 2: numbers from different scenarios
//! are never compared.
//!
//! [`MatrixReport`]: mp2p_experiments::MatrixReport

use std::path::{Path, PathBuf};

use mp2p_experiments::matrix::{compare_matrix, gate_violations, run_matrix, MatrixReport};
use mp2p_experiments::scenario::Scenario;
use mp2p_experiments::{cli, render_table};
use mp2p_sim::SimDuration;

struct Options {
    scenario_dir: PathBuf,
    only: Option<String>,
    smoke: bool,
    out_dir: PathBuf,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: f64,
    wall_tolerance: f64,
}

const VALUE_FLAGS: &[&str] = &[
    "--scenarios",
    "--only",
    "--out",
    "--json",
    "--baseline",
    "--tolerance",
    "--wall-tolerance",
];
const SWITCHES: &[&str] = &["--smoke", "--help", "-h"];

fn parse_options() -> Result<Options, String> {
    let args = cli::Args::from_env(VALUE_FLAGS, SWITCHES)?;
    if args.flag("--help") || args.flag("-h") {
        return Err("see the module docs at the top of matrix.rs for the flag list".into());
    }
    Ok(Options {
        scenario_dir: args
            .value_of("--scenarios")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("scenarios")),
        only: args.value_of("--only").map(str::to_owned),
        smoke: args.flag("--smoke"),
        out_dir: args
            .value_of("--out")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results/matrix")),
        json: args.value_of("--json").map(PathBuf::from),
        baseline: args.value_of("--baseline").map(PathBuf::from),
        tolerance: args.f64_of("--tolerance")?.unwrap_or(0.02),
        wall_tolerance: args.f64_of("--wall-tolerance")?.unwrap_or(0.5),
    })
}

/// Loads the corpus and applies `--only` / `--smoke` trimming.
fn load_corpus(opts: &Options) -> Result<Vec<Scenario>, String> {
    let mut scenarios = Scenario::load_dir(&opts.scenario_dir)?;
    if let Some(only) = &opts.only {
        scenarios.retain(|s| &s.name == only);
        if scenarios.is_empty() {
            return Err(format!(
                "no scenario named {only:?} under {}",
                opts.scenario_dir.display()
            ));
        }
    }
    if scenarios.is_empty() {
        return Err(format!(
            "no *.toml scenarios under {}",
            opts.scenario_dir.display()
        ));
    }
    if opts.smoke {
        scenarios.truncate(2);
        for s in &mut scenarios {
            s.strategies.truncate(2);
            s.seeds.truncate(1);
            s.sim_secs = SimDuration::from_mins(6).as_secs_f64();
            s.warmup_secs = SimDuration::from_secs(90).as_secs_f64();
        }
    }
    Ok(scenarios)
}

/// Writes one cell snapshot and re-parses the written bytes, so a
/// malformed file fails the run instead of poisoning later gates.
fn write_cell(dir: &Path, cell: &mp2p_experiments::MatrixCell) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "MATRIX_{}_{}_s{}.json",
        cell.scenario, cell.strategy, cell.seed
    ));
    std::fs::write(&path, cell.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let back = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot re-read {}: {e}", path.display()))?;
    let parsed = mp2p_experiments::MatrixCell::from_json(&back)
        .map_err(|e| format!("{} is not well-formed: {e}", path.display()))?;
    if &parsed != cell {
        return Err(format!("{} does not round-trip", path.display()));
    }
    Ok(path)
}

const SCORECARD_HEADER: [&str; 9] = [
    "cell", "fresh", "stale", "blame", "lat ms", "p95 ms", "tx/min", "fail %", "kev/s",
];

fn scorecard(report: &MatrixReport) -> String {
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.key(),
                format!("{:.4}", c.fresh_fraction),
                c.stale_served.to_string(),
                c.dominant_blame.clone(),
                format!("{:.0}", c.mean_latency_secs * 1000.0),
                format!("{:.0}", c.p95_latency_secs * 1000.0),
                format!("{:.0}", c.traffic_per_min),
                format!("{:.1}", c.failure_rate * 100.0),
                format!("{:.0}", c.events_per_sec / 1000.0),
            ]
        })
        .collect();
    render_table(&SCORECARD_HEADER, &rows)
}

const DIFF_HEADER: [&str; 4] = ["cell", "axis", "baseline/limit", "measured"];

fn diff_table(regressions: &[mp2p_experiments::CellRegression]) -> String {
    let rows: Vec<Vec<String>> = regressions
        .iter()
        .map(|r| {
            vec![
                r.cell.clone(),
                r.axis.label().to_owned(),
                format!("{:.4} (limit {:.4})", r.baseline, r.limit),
                format!("{:.4}", r.measured),
            ]
        })
        .collect();
    render_table(&DIFF_HEADER, &rows)
}

/// Runs the sweep and all gates. `Ok(true)` = pass, `Ok(false)` = at
/// least one gate tripped (exit 1), `Err` = usage/IO error (exit 2).
fn run(opts: &Options) -> Result<bool, String> {
    let scenarios = load_corpus(opts)?;
    let cells_expected: usize = scenarios
        .iter()
        .map(|s| s.strategies.len() * s.seeds.len())
        .sum();
    println!(
        "Sweeping {} scenario(s), {} cell(s){}...",
        scenarios.len(),
        cells_expected,
        if opts.smoke { " [smoke]" } else { "" },
    );
    let (report, breaches) = run_matrix(&scenarios, true);
    for cell in &report.cells {
        let path = write_cell(&opts.out_dir, cell)?;
        println!("{} -> {}", cell.key(), path.display());
    }
    let report_path = opts.out_dir.join("MATRIX_REPORT.json");
    std::fs::write(&report_path, report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;
    println!("fleet report -> {}", report_path.display());
    if let Some(path) = &opts.json {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("fleet report -> {}", path.display());
    }
    print!("{}", scorecard(&report));

    let mut pass = true;
    if !breaches.is_empty() {
        pass = false;
        println!("\nINVARIANT BREACHES ({}):", breaches.len());
        for breach in &breaches {
            println!("  {breach}");
        }
    }
    let floors = gate_violations(&scenarios, &report);
    if !floors.is_empty() {
        pass = false;
        println!("\nGATE FLOOR VIOLATIONS ({}):", floors.len());
        print!("{}", diff_table(&floors));
    }
    if let Some(path) = &opts.baseline {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        let baseline = MatrixReport::from_json(&text)
            .map_err(|e| format!("baseline {}: {e}", path.display()))?;
        let regressions = compare_matrix(&baseline, &report, opts.tolerance, opts.wall_tolerance)?;
        if regressions.is_empty() {
            println!(
                "\nPASS: all {} baseline cell(s) within tolerance ({:.0}% deterministic, {:.0}% wall-clock)",
                baseline.cells.len(),
                opts.tolerance * 100.0,
                opts.wall_tolerance * 100.0,
            );
        } else {
            pass = false;
            println!("\nREGRESSIONS ({}):", regressions.len());
            print!("{}", diff_table(&regressions));
        }
    }
    Ok(pass)
}

fn main() {
    let opts = match parse_options() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
