//! Side-by-side strategy comparison at the Table 1 default point:
//! `compare [--full] [--seed N] [--range M] [--mobility MODEL[:P...]]
//! [--faults PRESET] [--hardened] [--recovery] [--consistency]
//! [--provenance] [--trace PREFIX] [--json FILE]`.
//!
//! Prints traffic (total and per message class), latency, staleness,
//! failure rate, relay population and energy for Pull, Push and the four
//! RPCC variants. With `--trace PREFIX`, each strategy's run additionally
//! writes a flight-recorder journal to `PREFIX-<name>.jsonl` (strategy
//! names are sanitised for the filesystem: `RPCC(SC)` → `RPCC-SC`) whose
//! header carries the run's warm-up, so `analyze --report` cross-checks it
//! against that strategy's report.
//! `--json FILE` writes every run's machine-readable report — the same
//! `RunReport::to_json` objects the `run` binary emits — as
//! `{"seed":N,"reports":[...]}`.
//!
//! `--consistency` switches the observatory on for every strategy run:
//! the table gains a consistency scorecard (stale serves attributed,
//! Δ-consistency violations and the dominant blame cause per strategy),
//! each report in `--json` carries its `consistency` section, and
//! `--trace` journals gain the observatory records.
//!
//! `--recovery` switches the self-healing recovery layer on for every
//! strategy run (rejoin resync, acknowledged updates with bounded
//! retransmit, relay-lease handover); the table gains the recovery
//! counters and `--trace` journals gain the recovery records. Run the same
//! comparison with and without the flag to measure what recovery buys
//! under a fault preset.
//!
//! `--provenance` switches the causal provenance engine on for every
//! strategy run: frame births, hops, fates and copy lineage are
//! journaled, so `analyze --explain` can walk the `--trace` journals.

use mp2p_experiments::{cli, render_table, RunOptions};
use mp2p_metrics::MessageClass;
use mp2p_rpcc::{
    MobilityKind, ObservatoryConfig, ProvenanceConfig, RecoveryConfig, RunReport, World,
    WorldConfig,
};
use mp2p_sim::SimDuration;
use mp2p_trace::{BlameCause, JsonlSink};

/// `RPCC(SC)` → `RPCC-SC`: keep trace filenames shell-friendly.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            c if c.is_ascii_alphanumeric() || c == '-' || c == '_' => out.push(c),
            '+' => out.push_str("plus"),
            _ => {
                if !out.ends_with('-') {
                    out.push('-');
                }
            }
        }
    }
    out.trim_end_matches('-').to_string()
}

const VALUE_FLAGS: &[&str] = &[
    "--seed",
    "--range",
    "--mobility",
    "--ttl",
    "--trace",
    "--faults",
    "--json",
];
const SWITCHES: &[&str] = &[
    "--full",
    "--single",
    "--hardened",
    "--recovery",
    "--consistency",
    "--provenance",
];

fn main() {
    let fail = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let args = cli::Args::from_env(VALUE_FLAGS, SWITCHES).unwrap_or_else(|e| fail(e));
    let full = args.flag("--full");
    let seed = args
        .u64_of("--seed")
        .unwrap_or_else(|e| fail(e))
        .unwrap_or(42);
    let range = args.f64_of("--range").unwrap_or_else(|e| fail(e));
    let mobility: Option<MobilityKind> = args
        .value_of("--mobility")
        .map(|v| cli::parse_mobility(v).unwrap_or_else(|e| fail(e)));
    let single = args.flag("--single");
    let ttl = args
        .u64_of("--ttl")
        .unwrap_or_else(|e| fail(e))
        .map(|t| t as u8);
    let trace_prefix: Option<String> = args.value_of("--trace").map(str::to_owned);
    let fault_preset: Option<String> = args.value_of("--faults").map(str::to_owned);
    let json_path: Option<String> = args.value_of("--json").map(str::to_owned);
    let hardened = args.flag("--hardened");
    let recovery = args.flag("--recovery");
    let consistency = args.flag("--consistency");
    let provenance = args.flag("--provenance");
    let opts = if full {
        RunOptions::full()
    } else {
        RunOptions::quick()
    };

    let specs = mp2p_experiments::extended_strategies();
    let reports: Vec<RunReport> = specs
        .iter()
        .map(|spec| {
            let mut cfg = WorldConfig::paper_default(seed);
            cfg.sim_time = opts.sim_time;
            cfg.warmup = opts.warmup;
            cfg.strategy = spec.strategy;
            cfg.level_mix = spec.mix;
            if let Some(r) = range {
                cfg.range = r;
            }
            if let Some(kind) = mobility {
                cfg.mobility = kind;
            }
            if single {
                cfg.workload = mp2p_rpcc::WorkloadMode::SingleItem;
            }
            if let Some(t) = ttl {
                cfg.proto.invalidation_ttl = t;
            }
            if hardened {
                cfg.proto = cfg.proto.hardened();
            }
            if recovery {
                cfg.proto.recovery = RecoveryConfig::on();
            }
            if consistency {
                cfg.observatory = ObservatoryConfig::full(SimDuration::from_secs(30));
            }
            if provenance {
                cfg.provenance = ProvenanceConfig::full();
            }
            if let Some(preset) = &fault_preset {
                cfg.faults = cli::parse_faults(preset, cfg.sim_time).unwrap_or_else(|e| fail(e));
            }
            let mut world = World::new(cfg);
            if let Some(prefix) = &trace_prefix {
                let path = format!("{prefix}-{}.jsonl", sanitize(spec.name));
                match JsonlSink::create_v4_with_warmup(std::path::Path::new(&path), opts.warmup) {
                    Ok(sink) => {
                        world.set_tracer(Box::new(sink));
                        eprintln!("tracing {} -> {path}", spec.name);
                    }
                    Err(err) => {
                        eprintln!("cannot create trace file {path}: {err}");
                        std::process::exit(2);
                    }
                }
            }
            world.run_traced().0
        })
        .collect();

    if let Some(path) = &json_path {
        let body: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        let doc = format!("{{\"seed\":{seed},\"reports\":[{}]}}\n", body.join(","));
        if let Err(err) = std::fs::write(path, doc) {
            eprintln!("cannot write report JSON {path}: {err}");
            std::process::exit(2);
        }
        eprintln!("Report JSON -> {path}");
    }

    let mut headers = vec!["metric"];
    headers.extend(specs.iter().map(|s| s.name));
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |name: &str, f: &dyn Fn(&RunReport) -> String| {
        let mut r = vec![name.to_string()];
        r.extend(reports.iter().map(f));
        rows.push(r);
    };
    row("tx/min", &|r| format!("{:.1}", r.traffic_per_minute()));
    row("KB/min", &|r| {
        format!(
            "{:.1}",
            r.traffic.bytes() as f64 / 1024.0 / (r.measured.as_secs_f64() / 60.0)
        )
    });
    row("mean latency (s)", &|r| {
        format!("{:.3}", r.mean_latency_secs())
    });
    row("p95 latency (s)", &|r| {
        format!("{:.3}", r.latency.percentile(0.95).as_secs_f64())
    });
    row("queries served", &|r| r.queries_served().to_string());
    row("failure rate", &|r| format!("{:.4}", r.failure_rate()));
    row("fresh fraction", &|r| {
        format!("{:.4}", r.audit.fresh_fraction())
    });
    row("stale served", &|r| r.audit.stale_served().to_string());
    row("max staleness (s)", &|r| {
        format!("{:.1}", r.audit.max_staleness().as_secs_f64())
    });
    if consistency {
        // The consistency scorecard: what the observatory attributed.
        row("stale attributed", &|r| {
            r.consistency
                .map_or_else(|| "-".into(), |c| c.blamed_total().to_string())
        });
        row("Δ violations", &|r| {
            r.consistency
                .map_or_else(|| "-".into(), |c| c.delta_violations.to_string())
        });
        row("dominant blame", &|r| {
            r.consistency.map_or_else(
                || "-".into(),
                |c| {
                    BlameCause::ALL
                        .into_iter()
                        .max_by_key(|cause| c.blame[cause.index()])
                        .filter(|cause| c.blame[cause.index()] > 0)
                        .map_or_else(|| "none".into(), |cause| cause.label().to_string())
                },
            )
        });
    }
    row("relay items (mean)", &|r| {
        format!("{:.1}", r.relay_gauge.mean())
    });
    row("candidates (mean)", &|r| {
        format!("{:.1}", r.candidate_gauge.mean())
    });
    row("energy used (J)", &|r| {
        format!("{:.0}", r.energy_used_mj / 1_000.0)
    });
    if reports.iter().any(|r| r.fault_plan.is_some()) {
        row("burst drops", &|r| r.faults.burst_drops.to_string());
        row("frames duplicated", &|r| {
            r.faults.frames_duplicated.to_string()
        });
        row("crashes", &|r| r.faults.crashes.to_string());
        row("relay leases expired", &|r| {
            r.faults.lease_expiries.to_string()
        });
        row("fallback floods", &|r| r.faults.fallback_floods.to_string());
    }
    if reports.iter().any(|r| r.recovery_enabled) {
        row("rejoin resyncs", &|r| r.faults.resyncs.to_string());
        row("retransmits", &|r| r.faults.retransmits.to_string());
        row("delivery acks", &|r| r.faults.delivery_acks.to_string());
        row("lease handovers", &|r| r.faults.handovers.to_string());
        row("retx queue peak", &|r| r.faults.retx_queue_peak.to_string());
    }
    for class in MessageClass::ALL {
        let any = reports.iter().any(|r| r.traffic.by_class(class) > 0);
        if any {
            let mut r = vec![format!("tx {}", class.label())];
            r.extend(
                reports
                    .iter()
                    .map(|rep| rep.traffic.by_class(class).to_string()),
            );
            rows.push(r);
        }
    }

    println!(
        "Strategy comparison at Table 1 defaults ({} sim, warmup {}, seed {seed})",
        opts.sim_time, opts.warmup
    );
    print!("{}", render_table(&headers, &rows));
}
