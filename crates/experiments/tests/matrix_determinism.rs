//! Determinism and gate-trip tests for the scenario matrix.
//!
//! Three obligations from the scenario-matrix design:
//!
//! 1. The same cell run twice produces byte-identical
//!    [`RunReport::to_json`] output — also for every strategy of the
//!    `chaos-hostile` gate, where fault injection must draw only from
//!    its own stream — and the matrix path produces the same cell as a
//!    direct run frozen by hand.
//! 2. The committed `paper-default` scenario reproduces the
//!    `WorldConfig::paper_default` world **byte for byte**: the scenario
//!    layer can never silently drift the paper reproduction.
//! 3. An injected regression on any single axis of any single cell makes
//!    the `matrix` binary exit non-zero, naming the offending axis;
//!    mismatched cell identities exit 2 instead of producing a verdict.
//!
//! [`RunReport::to_json`]: mp2p_rpcc::RunReport::to_json

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mp2p_experiments::matrix::{run_cell, run_matrix, MatrixCell, MatrixReport};
use mp2p_experiments::scenario::Scenario;
use mp2p_rpcc::{World, WorldConfig};
use mp2p_sim::SimDuration;

/// A fast single-cell scenario used by the in-process determinism tests
/// and (written to a temp dir) by the binary gate tests.
const TINY: &str = r#"
schema = 1
name = "tiny-gate"
summary = "single fast cell for determinism and gate tests"

[world]
peers = 8
cache = 3
range_m = 250
terrain_w_m = 500
terrain_h_m = 500
sim_mins = 3
warmup_mins = 0.5
query_secs = 10
update_secs = 60
consistency_sample_secs = 30

[mobility]
model = "manhattan"
block_m = 100
speed_mps = 8

[matrix]
strategies = ["rpcc"]
seeds = [42]
"#;

fn gate_scenario(name: &str) -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios/gates")
        .join(format!("{name}.toml"));
    Scenario::load(&path).expect("committed gate scenario loads")
}

#[test]
fn the_same_cell_twice_is_byte_identical() {
    let tiny = Scenario::parse(TINY).unwrap();
    let hostile = gate_scenario("chaos-hostile");
    assert_eq!(hostile.strategies.len(), 3, "rpcc, push and pull");
    for s in [&tiny, &hostile] {
        for &strategy in &s.strategies {
            let seed = s.seeds[0];
            let first = s.run_cell_report(strategy, seed).to_json();
            let second = s.run_cell_report(strategy, seed).to_json();
            assert_eq!(
                first, second,
                "{}/{strategy}: same-cell reruns must not drift",
                s.name
            );
        }
    }
}

#[test]
fn the_matrix_path_equals_the_direct_run_path() {
    let s = Scenario::parse(TINY).unwrap();
    let strategy = s.strategies[0];
    // The matrix executor (unprofiled, so every field is deterministic)...
    let (report, breaches) = run_matrix(std::slice::from_ref(&s), false);
    assert!(breaches.is_empty(), "{breaches:?}");
    let via_matrix = report.cell("tiny-gate", "rpcc", 42).expect("cell swept");
    // ...must freeze exactly the cell a direct run freezes by hand.
    let direct = s.run_cell_report(strategy, 42);
    let by_hand = MatrixCell::from_report(&s, strategy, 42, &direct);
    assert_eq!(via_matrix, &by_hand);
    // And a profiled run only fills the wall-clock fields.
    let (mut profiled, _) = run_cell(&s, strategy, 42, true);
    assert!(profiled.events > 0 && profiled.events_per_sec > 0.0);
    profiled.events = 0;
    profiled.wall_secs = 0.0;
    profiled.events_per_sec = 0.0;
    assert_eq!(
        &profiled, via_matrix,
        "profiling must be strictly observational"
    );
}

/// The golden anchor: `scenarios/paper-default.toml` transcribes Table 1,
/// so running its cell through the scenario layer must reproduce the
/// directly-constructed `WorldConfig::paper_default` world byte for byte.
#[test]
fn paper_default_scenario_reproduces_the_direct_run() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/paper-default.toml");
    let s = Scenario::load(&path).expect("committed golden scenario loads");
    let strategy = s.strategies[0];
    let seed = s.seeds[0];

    let mut direct_cfg = WorldConfig::paper_default(seed);
    direct_cfg.strategy = strategy;
    direct_cfg.sim_time = SimDuration::from_mins(12);
    direct_cfg.warmup = SimDuration::from_mins(3);

    let via_scenario = s.run_cell_report(strategy, seed).to_json();
    let direct = World::new(direct_cfg).run().to_json();
    assert_eq!(
        via_scenario, direct,
        "the scenario layer drifted the paper reproduction"
    );
}

// ---- matrix binary: injected regressions must trip the gate ----------

struct TempMatrixDir {
    root: PathBuf,
}

impl TempMatrixDir {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("mp2p-matrix-gate-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("scenarios")).expect("temp dir creates");
        std::fs::write(root.join("scenarios/tiny-gate.toml"), TINY).expect("scenario writes");
        TempMatrixDir { root }
    }

    fn scenarios(&self) -> PathBuf {
        self.root.join("scenarios")
    }

    fn out(&self) -> PathBuf {
        self.root.join("out")
    }

    fn baseline(&self) -> PathBuf {
        self.root.join("baseline.json")
    }
}

impl Drop for TempMatrixDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn run_matrix_binary(dir: &TempMatrixDir, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_matrix"))
        .arg("--scenarios")
        .arg(dir.scenarios())
        .arg("--out")
        .arg(dir.out())
        .args(extra)
        .output()
        .expect("matrix binary spawns")
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn injected_regressions_trip_the_gate_per_axis() {
    let dir = TempMatrixDir::new("axes");

    // Sweep once to produce the baseline.
    let baseline_str = dir.baseline().display().to_string();
    let seeded = run_matrix_binary(&dir, &["--json", &baseline_str]);
    assert!(
        seeded.status.success(),
        "baseline sweep failed: {}\n{}",
        stdout_of(&seeded),
        String::from_utf8_lossy(&seeded.stderr)
    );
    let baseline_text = std::fs::read_to_string(dir.baseline()).unwrap();
    let baseline = MatrixReport::from_json(&baseline_text).expect("baseline parses");
    assert_eq!(baseline.cells.len(), 1);
    let cell = &baseline.cells[0];
    assert!(
        cell.p95_latency_secs > 0.0,
        "the tiny cell must produce a non-zero p95 for the latency axis to be testable"
    );
    assert!(cell.events_per_sec > 0.0, "the binary profiles its cells");

    // A clean re-run against its own baseline passes (deterministic axes
    // are exact; the wall-clock axis gets a generous band).
    let clean = run_matrix_binary(
        &dir,
        &["--baseline", &baseline_str, "--wall-tolerance", "0.95"],
    );
    assert!(
        clean.status.success(),
        "identical sweep flagged as regression:\n{}",
        stdout_of(&clean)
    );

    // Tamper one axis at a time; each must exit 1 and name the axis.
    type Tamper = fn(&mut MatrixCell);
    let axes: [(&str, Tamper); 3] = [
        ("fresh-fraction", |c| {
            c.fresh_fraction = c.fresh_fraction * 2.0 + 0.1;
        }),
        ("p95-latency", |c| c.p95_latency_secs *= 0.5),
        ("events/sec", |c| c.events_per_sec *= 100.0),
    ];
    for (axis, tamper) in &axes {
        let mut doctored = baseline.clone();
        tamper(&mut doctored.cells[0]);
        std::fs::write(dir.baseline(), doctored.to_json()).unwrap();
        let tripped = run_matrix_binary(
            &dir,
            &["--baseline", &baseline_str, "--wall-tolerance", "0.95"],
        );
        assert_eq!(
            tripped.status.code(),
            Some(1),
            "{axis}: a regressed baseline must exit 1\n{}",
            stdout_of(&tripped)
        );
        assert!(
            stdout_of(&tripped).contains(axis),
            "{axis}: the diff table must name the offending axis\n{}",
            stdout_of(&tripped)
        );
    }

    // A baseline describing a *different* scenario is an error (exit 2),
    // never a verdict.
    let mut alien = baseline.clone();
    alien.cells[0].peers += 1;
    std::fs::write(dir.baseline(), alien.to_json()).unwrap();
    let refused = run_matrix_binary(&dir, &["--baseline", &baseline_str]);
    assert_eq!(
        refused.status.code(),
        Some(2),
        "identity mismatch must exit 2\n{}",
        String::from_utf8_lossy(&refused.stderr)
    );
}

#[test]
fn gate_floor_violations_trip_the_sweep_without_a_baseline() {
    let dir = TempMatrixDir::new("floors");
    // Demand an impossible latency ceiling (1 ns) and a perfect fresh
    // fraction; at least one floor must trip the sweep on its own.
    let gated =
        format!("{TINY}\n[gates]\nmin_fresh_fraction = 1.0\nmax_p95_latency_secs = 0.000000001\n");
    std::fs::write(dir.scenarios().join("tiny-gate.toml"), gated).unwrap();
    let tripped = run_matrix_binary(&dir, &[]);
    assert_eq!(
        tripped.status.code(),
        Some(1),
        "an unmet [gates] floor must exit 1\n{}",
        stdout_of(&tripped)
    );
    assert!(stdout_of(&tripped).contains("GATE FLOOR VIOLATIONS"));
}

#[test]
fn a_mistyped_flag_exits_2_before_sweeping() {
    let dir = TempMatrixDir::new("typo");
    let refused = run_matrix_binary(&dir, &["--basline", "baseline.json"]);
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("unknown flag \"--basline\""));
    let refused = run_matrix_binary(&dir, &["--only"]);
    assert_eq!(refused.status.code(), Some(2));
    assert!(!dir.out().exists(), "no cell may run on a usage error");
}
