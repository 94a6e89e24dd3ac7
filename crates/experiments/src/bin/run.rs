//! Free-form scenario runner: every interesting knob on the command line.
//!
//! ```text
//! run [--strategy rpcc|push|pull|push-ap] [--mix sc|dc|wc|hy]
//!     [--peers N] [--cache N] [--terrain METRES] [--range METRES]
//!     [--mobility waypoint[:MIN:MAX:PAUSE]|walk[:MIN:MAX:EPOCH]|manhattan[:BLOCK:SPEED]|stationary]
//!     [--sim MINUTES] [--warmup MINUTES]
//!     [--update-secs S] [--query-secs S] [--write-secs S]
//!     [--ttl HOPS] [--loss P] [--no-churn] [--oracle-routing]
//!     [--adaptive] [--relay-cap N] [--single-item] [--seed N]
//!     [--faults none|bursty|partition|crash|crash-heavy|hostile] [--hardened]
//!     [--recovery] [--consistency] [--sample-secs S] [--provenance]
//!     [--trace FILE.jsonl] [--json FILE.json] [--metrics-out FILE.json]
//!     [--profile]
//! ```
//!
//! Example: the paper's default RPCC point with lossy links and writes:
//!
//! ```text
//! cargo run --release -p mp2p-experiments --bin run -- \
//!     --strategy rpcc --mix hy --loss 0.05 --write-secs 180 --sim 60
//! ```
//!
//! `--trace` switches the flight recorder on: every message, relay
//! transition, query and churn event is appended to the given JSONL file
//! (after a `{"schema":4,...}` header line carrying the warm-up), and an
//! event-count table is printed after the run. `--json` writes the
//! machine-readable run report; feed both to the `analyze` binary to
//! reconstruct query spans and cross-check them against the report's
//! counters.
//!
//! `--faults` installs one of the chaos presets (scaled to the simulated
//! duration); `--hardened` switches on the protocol-hardening knobs
//! (retry backoff + jitter, relay orphan lease, fallback flood).
//!
//! `--mobility` selects the movement model (default: the paper's random
//! waypoint). `manhattan` moves nodes along a street grid — the model
//! shipped with the seed but reachable from a binary only since the
//! scenario-matrix PR. Colon parameters override the per-model defaults,
//! e.g. `--mobility manhattan:100:12` for 100 m blocks at 12 m/s.
//!
//! `--profile` switches the wall-clock profiler on: topology rebuild
//! counts by cause and a per-bucket wall time table are printed after
//! the run, and the `--json` report gains a `perf` section. Profiling is
//! strictly observational — the simulated results are bit-identical
//! either way.
//!
//! `--recovery` switches the self-healing recovery layer on: rejoining
//! nodes flood a version digest and drop stale copies before serving,
//! source updates are acknowledged and retransmitted from a bounded
//! queue, and an expiring relay lease is handed to a cached neighbour
//! instead of orphaning the item. The `--json` report gains the recovery
//! counters and a `--trace` journal gains the recovery records.
//!
//! `--consistency` switches the consistency observatory on: the
//! divergence sampler ticks every `--sample-secs` (default 30) simulated
//! seconds, every stale serve is blame-attributed, the `--json` report
//! gains a `consistency` section, and a `--trace` journal gains the
//! `ConsistencySample`/`StaleServe` records. Without the flag the report
//! bytes are identical to a build without the observatory.
//!
//! `--provenance` switches the causal provenance engine on: every
//! transmitted frame gets a deterministic `(origin, seq)` identity, and
//! its birth, every re-transmission hop, and its terminal fate (delivered,
//! duplicate-suppressed, or dropped with the injecting fault's cause) are
//! journaled, along with a lineage record for every cached copy naming
//! the frame that carried it in. Feed the `--trace` journal to
//! `analyze --explain --stale-serves` to walk every stale serve back to
//! its root cause. Off by default — without the flag the journal carries
//! no frame records.
//!
//! `--metrics-out` dumps the final windowed metrics-registry snapshot
//! after the run: the given path gets the JSON form and a sibling
//! `<path>.prom` gets the Prometheus text exposition, both derived from
//! the same trace stream the analyzer replays.

use mp2p_experiments::{cli, render_table};
use mp2p_metrics::MessageClass;
use mp2p_rpcc::{
    ObservatoryConfig, ProvenanceConfig, RecoveryConfig, RoutingMode, WorkloadMode, World,
    WorldConfig,
};
use mp2p_sim::SimDuration;
use mp2p_trace::bridge::{RegistrySink, DEFAULT_WINDOW};
use mp2p_trace::{BlameCause, EventKind, JsonlSink, SummarySink, TeeSink, TraceSink};

/// Parsed command line: the world to run plus the output destinations.
struct RunArgs {
    cfg: WorldConfig,
    trace: Option<std::path::PathBuf>,
    json: Option<std::path::PathBuf>,
    metrics_out: Option<std::path::PathBuf>,
    profile: bool,
}

const VALUE_FLAGS: &[&str] = &[
    "--strategy",
    "--mix",
    "--peers",
    "--cache",
    "--terrain",
    "--range",
    "--mobility",
    "--sim",
    "--warmup",
    "--update-secs",
    "--query-secs",
    "--write-secs",
    "--ttl",
    "--loss",
    "--relay-cap",
    "--seed",
    "--sample-secs",
    "--faults",
    "--trace",
    "--json",
    "--metrics-out",
];
const SWITCHES: &[&str] = &[
    "--no-churn",
    "--oracle-routing",
    "--adaptive",
    "--single-item",
    "--hardened",
    "--recovery",
    "--consistency",
    "--provenance",
    "--profile",
    "--help",
    "-h",
];

fn parse_args() -> Result<RunArgs, String> {
    let args = cli::Args::from_env(VALUE_FLAGS, SWITCHES)?;
    let mut cfg = WorldConfig::paper_default(42);
    cfg.sim_time = SimDuration::from_mins(45);
    cfg.warmup = SimDuration::from_mins(10);

    if let Some(v) = args.value_of("--strategy") {
        cfg.strategy = cli::parse_strategy(v)?;
    }
    if let Some(v) = args.value_of("--mix") {
        cfg.level_mix = cli::parse_mix(v)?;
    }
    if let Some(v) = args.usize_of("--peers")? {
        cfg.n_peers = v;
    }
    if let Some(v) = args.usize_of("--cache")? {
        cfg.c_num = v;
    }
    if let Some(side) = args.f64_of("--terrain")? {
        cfg.terrain = mp2p_mobility::Terrain::new(side, side);
    }
    if let Some(v) = args.f64_of("--range")? {
        cfg.range = v;
    }
    if let Some(v) = args.value_of("--mobility") {
        cfg.mobility = cli::parse_mobility(v)?;
    }
    if let Some(v) = args.f64_of("--sim")? {
        cfg.sim_time = SimDuration::from_secs_f64(v * 60.0);
    }
    if let Some(v) = args.f64_of("--warmup")? {
        cfg.warmup = SimDuration::from_secs_f64(v * 60.0);
    }
    if let Some(v) = args.f64_of("--update-secs")? {
        cfg.i_update = SimDuration::from_secs_f64(v);
    }
    if let Some(v) = args.f64_of("--query-secs")? {
        cfg.i_query = SimDuration::from_secs_f64(v);
    }
    if let Some(v) = args.f64_of("--write-secs")? {
        cfg.i_write = Some(SimDuration::from_secs_f64(v));
    }
    if let Some(v) = args.u64_of("--ttl")? {
        cfg.proto.invalidation_ttl = v as u8;
    }
    if let Some(v) = args.f64_of("--loss")? {
        cfg.link.loss_prob = v;
    }
    if let Some(v) = args.usize_of("--relay-cap")? {
        cfg.proto.max_relays_per_item = Some(v);
    }
    if let Some(v) = args.u64_of("--seed")? {
        cfg.seed = v;
    }
    if args.flag("--no-churn") {
        cfg.i_switch = None;
    }
    if args.flag("--oracle-routing") {
        cfg.routing = RoutingMode::Oracle;
    }
    if args.flag("--adaptive") {
        cfg.proto.adaptive = true;
    }
    if args.flag("--single-item") {
        cfg.workload = WorkloadMode::SingleItem;
    }
    if args.flag("--hardened") {
        cfg.proto = cfg.proto.hardened();
    }
    if args.flag("--recovery") {
        cfg.proto.recovery = RecoveryConfig::on();
    }
    if args.flag("--consistency") {
        let period = match args.f64_of("--sample-secs")? {
            Some(v) => SimDuration::from_secs_f64(v),
            None => SimDuration::from_secs(30),
        };
        cfg.observatory = ObservatoryConfig::full(period);
    } else if args.value_of("--sample-secs").is_some() {
        return Err("--sample-secs only makes sense together with --consistency".into());
    }
    if args.flag("--provenance") {
        cfg.provenance = ProvenanceConfig::full();
    }
    // Resolved after --sim so the preset windows scale to the actual run.
    if let Some(v) = args.value_of("--faults") {
        cfg.faults = cli::parse_faults(v, cfg.sim_time)?;
    }
    if args.flag("--help") || args.flag("-h") {
        return Err("see the module docs at the top of run.rs for the flag list".into());
    }
    // A small peer count with the default C_Num would fail validation;
    // clamp to the foreign-catalogue size and say so.
    if cfg.n_peers >= 2 && cfg.c_num >= cfg.n_peers {
        let clamped = cfg.n_peers - 1;
        eprintln!("note: clamping cache size to {clamped} (only {clamped} foreign items exist)");
        cfg.c_num = clamped;
    }
    let trace = args.value_of("--trace").map(std::path::PathBuf::from);
    let json = args.value_of("--json").map(std::path::PathBuf::from);
    let metrics_out = args.value_of("--metrics-out").map(std::path::PathBuf::from);
    let profile = args.flag("--profile");
    Ok(RunArgs {
        cfg,
        trace,
        json,
        metrics_out,
        profile,
    })
}

fn main() {
    let RunArgs {
        cfg,
        trace: trace_path,
        json: json_path,
        metrics_out,
        profile,
    } = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    println!(
        "Running {} / {} — {} peers, {:.0} m terrain side, {} simulated (seed {})",
        cfg.strategy,
        cfg.level_mix,
        cfg.n_peers,
        cfg.terrain.width(),
        cfg.sim_time,
        cfg.seed
    );
    let writes_on = cfg.i_write.is_some();
    let warmup = cfg.warmup;
    let mut world = World::new(cfg);
    if profile {
        world.enable_profiling();
    }
    // Every requested consumer rides one tee; the indices remember where
    // each sink landed so the post-run reporting can find it again.
    let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
    let mut jsonl_idx = None;
    let mut summary_idx = None;
    let mut registry_idx = None;
    if let Some(path) = &trace_path {
        let jsonl = match JsonlSink::create_v4_with_warmup(path, warmup) {
            Ok(sink) => sink,
            Err(err) => {
                eprintln!("cannot create trace file {}: {err}", path.display());
                std::process::exit(2);
            }
        };
        jsonl_idx = Some(sinks.len());
        sinks.push(Box::new(jsonl));
        summary_idx = Some(sinks.len());
        sinks.push(Box::new(SummarySink::new(warmup)));
    }
    if metrics_out.is_some() {
        registry_idx = Some(sinks.len());
        sinks.push(Box::new(RegistrySink::new(DEFAULT_WINDOW, warmup)));
    }
    if !sinks.is_empty() {
        world.set_tracer(Box::new(TeeSink::new(sinks)));
    }
    let (report, tracer) = world.run_traced();

    if let Some(path) = &json_path {
        if let Err(err) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write report {}: {err}", path.display());
            std::process::exit(2);
        }
        println!("Report JSON -> {}", path.display());
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |k: &str, v: String| rows.push(vec![k.to_string(), v]);
    row(
        "transmissions/min",
        format!("{:.1}", report.traffic_per_minute()),
    );
    row(
        "KB/min",
        format!(
            "{:.1}",
            report.traffic.bytes() as f64 / 1024.0 / (report.measured.as_secs_f64() / 60.0)
        ),
    );
    row("queries served", report.queries_served().to_string());
    row(
        "served by src/relay/cache",
        format!(
            "{}/{}/{}",
            report.served_by[0], report.served_by[1], report.served_by[2]
        ),
    );
    row(
        "cache-hit ratio",
        format!("{:.4}", report.cache_hit_ratio()),
    );
    row("failure rate", format!("{:.4}", report.failure_rate()));
    row(
        "mean latency",
        format!("{:.3}s", report.mean_latency_secs()),
    );
    row(
        "p95 latency",
        format!("{:.3}s", report.latency.percentile(0.95).as_secs_f64()),
    );
    row(
        "fresh fraction",
        format!("{:.4}", report.audit.fresh_fraction()),
    );
    row(
        "stale served",
        format!(
            "{} ({:.2}%)",
            report.audit.stale_served(),
            (1.0 - report.audit.fresh_fraction()) * 100.0
        ),
    );
    row(
        "max staleness",
        format!("{:.1}s", report.audit.max_staleness().as_secs_f64()),
    );
    row(
        "relay items (mean)",
        format!("{:.1}", report.relay_gauge.mean()),
    );
    row(
        "candidates (mean)",
        format!("{:.1}", report.candidate_gauge.mean()),
    );
    row(
        "energy used",
        format!("{:.1} J", report.energy_used_mj / 1_000.0),
    );
    if writes_on {
        row(
            "writes acked/issued",
            format!("{}/{}", report.writes_completed(), report.writes_issued),
        );
        row(
            "write latency",
            format!("{:.3}s", report.write_latency.mean_secs()),
        );
    }
    if let Some(plan) = report.fault_plan {
        row("fault plan", plan.to_string());
        row(
            "crashes/recoveries",
            format!("{}/{}", report.faults.crashes, report.faults.recoveries),
        );
        row(
            "partitions opened/healed",
            format!(
                "{}/{}",
                report.faults.partitions_started, report.faults.partitions_healed
            ),
        );
        row("burst drops", report.faults.burst_drops.to_string());
        row(
            "frames duplicated",
            report.faults.frames_duplicated.to_string(),
        );
        row(
            "relay leases expired",
            report.faults.lease_expiries.to_string(),
        );
        row("fallback floods", report.faults.fallback_floods.to_string());
    }
    if report.recovery_enabled {
        row("rejoin resyncs", report.faults.resyncs.to_string());
        row("retransmits", report.faults.retransmits.to_string());
        row("delivery acks", report.faults.delivery_acks.to_string());
        row("lease handovers", report.faults.handovers.to_string());
        row("retx queue peak", report.faults.retx_queue_peak.to_string());
    }
    print!("{}", render_table(&["metric", "value"], &rows));

    println!("\nTraffic by message class:");
    let mut rows = Vec::new();
    for class in MessageClass::ALL {
        let n = report.traffic.by_class(class);
        if n > 0 {
            rows.push(vec![class.label().to_string(), n.to_string()]);
        }
    }
    print!("{}", render_table(&["class", "transmissions"], &rows));

    if let Some(consistency) = &report.consistency {
        println!(
            "\nConsistency observatory: {} divergence samples, {} stale serves attributed, \
             {} Δ-violations",
            consistency.samples,
            consistency.blamed_total(),
            consistency.delta_violations,
        );
        let mut rows = Vec::new();
        for cause in BlameCause::ALL {
            let n = consistency.blame[cause.index()];
            if n > 0 {
                rows.push(vec![cause.label().to_string(), n.to_string()]);
            }
        }
        if !rows.is_empty() {
            print!("{}", render_table(&["blame cause", "stale serves"], &rows));
        }
    }

    if let Some(perf) = &report.perf {
        println!(
            "\nWall-clock profile: {} events in {:.2}s ({:.0} events/s, {:.0}x real time)",
            perf.events(),
            perf.wall_secs(),
            perf.events_per_sec(),
            perf.sim_time_ratio(),
        );
        println!(
            "Queue: {} pushes / {} pops, peak {} pending (capacity {}); {} frames sent",
            perf.queue.pushes,
            perf.queue.pops,
            perf.queue.peak_len,
            perf.queue.peak_capacity,
            perf.frames_sent,
        );
        println!(
            "Topology rebuilds: {} for age, {} after invalidation",
            perf.topology_rebuilds.age, perf.topology_rebuilds.invalidated,
        );
        let mut rows = Vec::new();
        for bucket in perf.top(10) {
            rows.push(vec![
                bucket.name.to_string(),
                bucket.count.to_string(),
                format!("{:.4}", bucket.secs()),
                format!("{:.1}%", perf.share(bucket) * 100.0),
            ]);
        }
        print!(
            "{}",
            render_table(&["bucket", "count", "wall s", "share"], &rows)
        );
    }

    let tee = (trace_path.is_some() || metrics_out.is_some()).then(|| {
        tracer
            .as_any()
            .downcast_ref::<TeeSink>()
            .expect("the tee sink installed above")
    });
    if let (Some(path), Some(tee)) = (&trace_path, tee) {
        let jsonl = tee.sinks()[jsonl_idx.expect("trace requested")]
            .as_any()
            .downcast_ref::<JsonlSink>()
            .expect("jsonl sink at its recorded tee index");
        let summary = tee.sinks()[summary_idx.expect("trace requested")]
            .as_any()
            .downcast_ref::<SummarySink>()
            .expect("summary sink at its recorded tee index");
        if let Some(err) = jsonl.io_error() {
            eprintln!("warning: trace file truncated by I/O error: {err}");
        }
        println!("\nTrace events by kind:");
        let mut rows = Vec::new();
        for kind in EventKind::ALL {
            let n = summary.count_of(kind);
            if n > 0 {
                rows.push(vec![kind.label().to_string(), n.to_string()]);
            }
        }
        print!("{}", render_table(&["event", "count"], &rows));
        println!(
            "\nFlight recorder: {} events -> {}",
            jsonl.records(),
            path.display()
        );
    }
    if let (Some(path), Some(tee)) = (&metrics_out, tee) {
        let registry = tee.sinks()[registry_idx.expect("metrics requested")]
            .as_any()
            .downcast_ref::<RegistrySink>()
            .expect("registry sink at its recorded tee index")
            .registry();
        let prom_path = std::path::PathBuf::from(format!("{}.prom", path.display()));
        let written = std::fs::write(path, registry.to_json())
            .and_then(|()| std::fs::write(&prom_path, registry.render_prometheus()));
        if let Err(err) = written {
            eprintln!("cannot write metrics snapshot {}: {err}", path.display());
            std::process::exit(2);
        }
        println!(
            "Metrics snapshot -> {} (JSON) and {} (Prometheus text)",
            path.display(),
            prom_path.display()
        );
    }
}
