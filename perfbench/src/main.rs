//! Outside-in benchmark of the RPCC simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-50 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` runs the workload's cells untraced, pass after pass for
//! `--seconds`, each between two runs of a fixed reference computation,
//! and reports the end-to-end metrics. `--trace 1` runs each cell untraced and then with
//! the profiler and a counting sink, replays each layer's public API on
//! inputs built from the same config and seed, and reports the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object; the lines before it are for people.
//! `perfbench/README.md` describes the workloads and metrics.

mod cell;
mod e2e;
mod layers;
mod reference;
mod replay;
mod util;
mod workload;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Formats the result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
fn result_json(attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

/// JSON has no NaN or infinity; a metric that cannot be computed is
/// reported as `null`, which the reader treats as missing.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let (attempted, failed, metrics) = if args.trace {
        let l = layers::measure(&w, args.seconds);
        for row in &l.table {
            println!("{row}");
        }
        (l.attempted, l.failed, l.metrics)
    } else {
        let e = e2e::measure(&w, args.seconds);
        for row in &e.table {
            println!("{row}");
        }
        let metrics = e
            .metrics
            .into_iter()
            .map(|(n, u, v)| (n.to_string(), u, v))
            .collect();
        (e.attempted, e.failed, metrics)
    };
    for (name, unit, value) in &metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    // A run that measured exits 0; failed cells show in the result.
    println!("{}", result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
