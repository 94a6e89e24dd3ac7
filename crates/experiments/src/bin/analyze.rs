//! Offline trace analyzer: span reconstruction and report cross-checks.
//!
//! ```text
//! analyze --trace FILE.jsonl [--report FILE.json] [--top N]
//!         [--consistency]
//!         [--explain QUERY | --explain --stale-serves] [--health]
//! ```
//!
//! Reads a JSONL journal written by `run --trace`, reconstructs the
//! causal span of every query (issue → phases → answer), and prints a
//! per-run report: latency percentiles by consistency level and answer
//! provenance, the span-phase time breakdown, a post-warm-up traffic
//! timeline, and the top-N slowest spans.
//!
//! With `--report` (the JSON written by `run --json`), the span-derived
//! totals are cross-checked against the simulation's own counters; any
//! divergence is printed and the process exits non-zero, making the
//! check usable as a CI gate. Exit codes: 0 clean, 1 cross-check
//! mismatch or truncated journal, 2 usage or I/O error.
//!
//! `--consistency` renders the observatory's view of the journal — the
//! divergence timeline and the stale-serve blame partition — and, when
//! `--report` is also given, cross-checks the journal-derived blame
//! counts, sample count and Δ-violations against the report's
//! `consistency` section (exit 1 on any mismatch).
//!
//! `--explain` is the causal root-cause explainer: it walks the
//! provenance graph (frame births, hops, fates, copy lineage — journaled
//! by `run --provenance`) and prints one causal chain
//! per stale serve, from the missed source update through the dropped or
//! delayed frame to the recovery action that repaired the copy.
//! `--explain QUERY` explains one query; `--explain --stale-serves`
//! explains every stale serve in the journal. With `--report`, the
//! explainer's terminal causes are cross-checked against the report's
//! blame partition — any divergence exits 1.
//!
//! `--health` prints the per-node / per-link health scoreboard derived
//! from the same graph: frame drop rates, relay load, and each node's
//! staleness contribution.

use mp2p_experiments::{
    analyze_file, crosscheck, crosscheck_consistency, crosscheck_explain, explain_stale_serves,
    render_analysis, render_consistency, render_explain, render_health, ConsistencyReportTotals,
    ReportTotals,
};

struct Args {
    trace: std::path::PathBuf,
    report: Option<std::path::PathBuf>,
    top: usize,
    consistency: bool,
    explain: bool,
    explain_query: Option<u64>,
    stale_serves: bool,
    health: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(
            "usage: analyze --trace FILE.jsonl [--report FILE.json] [--top N] \
             [--consistency] \
             [--explain QUERY | --explain --stale-serves] [--health]"
                .into(),
        );
    }
    let value_of = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let trace = value_of("--trace")
        .map(std::path::PathBuf::from)
        .ok_or("missing --trace FILE.jsonl (see --help)")?;
    let report = value_of("--report").map(std::path::PathBuf::from);
    let top = match value_of("--top") {
        Some(text) => text
            .parse()
            .map_err(|_| format!("--top expects a number, got {text:?}"))?,
        None => 10,
    };
    let consistency = args.iter().any(|a| a == "--consistency");
    let explain = args.iter().any(|a| a == "--explain");
    let stale_serves = args.iter().any(|a| a == "--stale-serves");
    // `--explain 17` selects one query; `--explain --stale-serves` (or a
    // bare `--explain`) walks every incident.
    let explain_query = match value_of("--explain") {
        Some(text) if !text.starts_with("--") => Some(
            text.parse()
                .map_err(|_| format!("--explain expects a query id, got {text:?}"))?,
        ),
        _ => None,
    };
    if stale_serves && !explain {
        return Err("--stale-serves is a mode of --explain (see --help)".into());
    }
    let health = args.iter().any(|a| a == "--health");
    Ok(Args {
        trace,
        report,
        top,
        consistency,
        explain,
        explain_query,
        stale_serves,
        health,
    })
}

/// Reads and parses one report JSON file, exiting on I/O errors.
fn read_report(path: &std::path::Path) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read report {}: {err}", path.display());
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let analysis = match analyze_file(&args.trace) {
        Ok(analysis) => analysis,
        Err(err) => {
            eprintln!("cannot analyze {}: {err}", args.trace.display());
            std::process::exit(2);
        }
    };
    print!("{}", render_analysis(&analysis, args.top));
    if args.consistency {
        print!("{}", render_consistency(&analysis.consistency));
    }
    let incidents = args.explain.then(|| explain_stale_serves(&analysis));
    if let Some(incidents) = &incidents {
        print!("{}", render_explain(incidents, args.explain_query));
    }
    if args.health {
        print!("{}", render_health(&analysis));
    }

    let mut failed = false;
    if analysis.orphan_tagged > 0 {
        failed = true; // already reported inside render_analysis
    }
    if let Some(path) = &args.report {
        let text = read_report(path);
        let report = match ReportTotals::from_report_json(&text) {
            Some(report) => report,
            None => {
                eprintln!(
                    "report {} lacks the expected counters (written by run --json?)",
                    path.display()
                );
                std::process::exit(2);
            }
        };
        let mismatches = crosscheck(&analysis.measured_totals(), &report);
        if mismatches.is_empty() {
            println!("\nCross-check against {}: exact agreement", path.display());
        } else {
            failed = true;
            eprintln!("\nCross-check against {} FAILED:", path.display());
            for line in &mismatches {
                eprintln!("  {line}");
            }
        }

        if args.consistency {
            match ConsistencyReportTotals::from_report_json(&text) {
                Some(consistency) => {
                    let mismatches = crosscheck_consistency(&analysis.consistency, &consistency);
                    if mismatches.is_empty() {
                        println!(
                            "Consistency cross-check against {}: exact agreement \
                             ({} stale serves attributed)",
                            path.display(),
                            consistency.stale_served,
                        );
                    } else {
                        failed = true;
                        eprintln!(
                            "\nConsistency cross-check against {} FAILED:",
                            path.display()
                        );
                        for line in &mismatches {
                            eprintln!("  {line}");
                        }
                    }
                }
                None => {
                    eprintln!(
                        "report {} has no consistency section (run with --consistency?)",
                        path.display()
                    );
                    std::process::exit(2);
                }
            }
        }

        if let Some(incidents) = incidents.as_ref().filter(|_| args.stale_serves) {
            match ConsistencyReportTotals::from_report_json(&text) {
                Some(consistency) => {
                    let mismatches = crosscheck_explain(incidents, &consistency);
                    if mismatches.is_empty() {
                        println!(
                            "Explain cross-check against {}: exact agreement \
                             ({} causal chains, terminal causes match the blame partition)",
                            path.display(),
                            incidents.len(),
                        );
                    } else {
                        failed = true;
                        eprintln!("\nExplain cross-check against {} FAILED:", path.display());
                        for line in &mismatches {
                            eprintln!("  {line}");
                        }
                    }
                }
                None => {
                    eprintln!(
                        "report {} has no consistency section to cross-check the \
                         explainer against (run with --consistency?)",
                        path.display()
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
