//! Determinism across processes: the same seed run by two separate `run`
//! processes must write byte-identical reports and journals. Each process
//! draws its own random hash keys, so any hash-container iteration order
//! that reached the simulation's behaviour would show up here, where an
//! in-process rerun (one set of keys) cannot see it.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs the `run` binary once with every opt-in layer on, writing its
/// journal and report under `dir` with the given file stem.
fn run_once(dir: &Path, stem: &str) -> (PathBuf, PathBuf) {
    let trace = dir.join(format!("{stem}.jsonl"));
    let json = dir.join(format!("{stem}.json"));
    let output = Command::new(env!("CARGO_BIN_EXE_run"))
        .args(["--seed", "7", "--sim", "6", "--warmup", "2"])
        .args(["--faults", "bursty", "--hardened", "--recovery"])
        .args(["--consistency", "--provenance"])
        .arg("--trace")
        .arg(&trace)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("run binary spawns");
    assert!(
        output.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (trace, json)
}

#[test]
fn two_processes_write_identical_reports_and_journals() {
    let dir = std::env::temp_dir().join(format!("mp2p-cross-process-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (trace_a, json_a) = run_once(&dir, "a");
    let (trace_b, json_b) = run_once(&dir, "b");

    let report_a = std::fs::read(&json_a).expect("report a");
    let report_b = std::fs::read(&json_b).expect("report b");
    let journal_a = std::fs::read(&trace_a).expect("journal a");
    let journal_b = std::fs::read(&trace_b).expect("journal b");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!report_a.is_empty() && !journal_a.is_empty());
    assert!(
        report_a == report_b,
        "reports differ between two processes with the same seed"
    );
    assert_eq!(journal_a.len(), journal_b.len(), "journal lengths differ");
    assert!(
        journal_a == journal_b,
        "journals differ between two processes with the same seed"
    );
}
