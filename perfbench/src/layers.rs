//! Per-layer metrics: a traced run of every cell beside an untraced
//! one, plus the layer replays, reconciled against the untraced run.

use std::time::{Duration, Instant};

use mp2p_rpcc::RunReport;
use mp2p_trace::EventKind;

use crate::cell::{run_traced, run_untraced, Traced};
use crate::e2e::repeat_breaches;
use crate::replay;
use crate::util::{min, Spans};
use crate::workload::Workload;

/// Profiler `event:*` buckets reported as `core.profile.<name>_share`.
/// Shares are of the event loop's wall time; `msg:*` buckets nest inside
/// `event:rx` and are not reported.
const PROFILE_BUCKETS: [&str; 11] = [
    "event:rx",
    "event:query",
    "event:update",
    "event:switch",
    "event:write",
    "event:write_retry",
    "event:net_timer",
    "event:proto_timer",
    "event:coeff_tick",
    "event:sample",
    "event:fault",
];

pub struct Layers {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, &'static str, f64)>,
    pub table: Vec<String>,
}

fn count(t: &Traced, kind: EventKind) -> u64 {
    t.counts[kind.index()]
}

fn bucket(t: &Traced, name: &str) -> (u64, u128) {
    t.perf
        .buckets
        .iter()
        .find(|b| b.name == name)
        .map_or((0, 0), |b| (b.count, b.nanos))
}

/// Runs every cell untraced then traced, round after round while time
/// remains (at least once), then the replays.
pub fn measure(w: &Workload, seconds: f64) -> Layers {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut spans = Spans::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut untraced_s: Vec<Vec<f64>> = vec![Vec::new(); w.cells.len()];
    let mut traced_s: Vec<Vec<f64>> = vec![Vec::new(); w.cells.len()];
    let mut first: Vec<Option<Traced>> = w.cells.iter().map(|_| None).collect();
    let mut last_round = Duration::ZERO;
    let mut rounds = 0;
    while rounds < 1 || Instant::now() + last_round <= deadline {
        let round_started = Instant::now();
        spans.enter("round", rounds.to_string());
        for (i, cell) in w.cells.iter().enumerate() {
            spans.enter("World::new+run untraced", cell.label.clone());
            let bare = run_untraced(cell);
            spans.exit(1);
            spans.enter("World::new+run_traced profiled", cell.label.clone());
            let traced = run_traced(cell);
            spans.exit(1);
            attempted += 2;
            let mut breaches = bare.breaches.clone();
            breaches.extend(traced.outcome.breaches.iter().cloned());
            breaches.extend(repeat_breaches(
                &bare,
                &traced.outcome,
                "traced vs untraced",
            ));
            if let Some(f) = &first[i] {
                breaches.extend(repeat_breaches(&f.outcome, &bare, "repeat"));
            }
            if !breaches.is_empty() {
                failed += 1;
                for b in &breaches {
                    eprintln!("FAILED {} {}: {b}", w.name, cell.label);
                }
            }
            untraced_s[i].push(bare.run_s);
            traced_s[i].push(traced.outcome.run_s);
            if first[i].is_none() {
                first[i] = Some(traced);
            }
        }
        spans.exit(w.cells.len() as u64);
        rounds += 1;
        last_round = round_started.elapsed();
    }
    let traced: Vec<Traced> = first.into_iter().map(|t| t.expect("ran once")).collect();
    let run_s: f64 = untraced_s.iter().map(|s| min(s)).sum();
    let traced_run_s: f64 = traced_s.iter().map(|s| min(s)).sum();

    // Replays: inputs from the first cell's config (the cells of one
    // workload share peers, terrain, mobility and range).
    let cfg = &w.cells[0].cfg;
    let peak_len = traced
        .iter()
        .map(|t| t.perf.queue.peak_len)
        .max()
        .unwrap_or(1);
    spans.enter("replays", "");
    spans.enter("replay mobility.position_at", "");
    let (pos, snapshots) = replay::mobility(cfg);
    spans.exit(pos.calls);
    spans.enter("replay net.TopologyBuilder::rebuild", "");
    let (rebuild, mean_degree) = replay::topology(cfg, &snapshots);
    spans.exit(rebuild.calls);
    spans.enter("replay net.NetStack::on_frame", "");
    let on_frame = replay::stack(cfg, &snapshots);
    spans.exit(on_frame.calls);
    spans.enter("replay cache.CacheStore", "");
    let cache_op = replay::cache(cfg);
    spans.exit(cache_op.calls);
    spans.enter("replay sim.EventQueue hold", "");
    let hold = replay::queue(cfg.seed, peak_len);
    spans.exit(hold.calls);
    spans.exit(5);

    let sum = |f: &dyn Fn(&Traced) -> u64| traced.iter().map(f).sum::<u64>();
    let events = sum(&|t| t.perf.events());
    let pushes = sum(&|t| t.perf.queue.pushes);
    let rx = sum(&|t| bucket(t, "event:rx").0);
    let dup = sum(&|t| count(t, EventKind::FloodDupDrop));
    let queries = sum(&|t| count(t, EventKind::QueryIssued));
    let trace_events: u64 = traced.iter().map(|t| t.counts.iter().sum::<u64>()).sum();
    let inner_records = sum(&|t| t.inner_records);
    let inner_ns: u128 = traced.iter().map(|t| t.inner_record_ns).sum();
    let journal_bytes = sum(&|t| t.outcome.journal.map_or(0, |j| j.bytes));
    let wall_ns: u128 = traced.iter().map(|t| t.perf.wall_nanos).sum();
    let reports: Vec<&RunReport> = traced.iter().map(|t| &t.outcome.report).collect();
    let (w_issued, w_acked, w_failed) = reports.iter().fold((0, 0, 0), |a, r| {
        (
            a.0 + r.writes_issued,
            a.1 + r.writes_completed(),
            a.2 + r.writes_failed,
        )
    });
    let served_by: [u64; 3] = reports.iter().fold([0; 3], |a, r| {
        [
            a[0] + r.served_by[0],
            a[1] + r.served_by[1],
            a[2] + r.served_by[2],
        ]
    });
    let rebuilds = sum(&|t| t.est_rebuilds);
    let record_ns = if inner_records == 0 {
        0.0
    } else {
        inner_ns as f64 / inner_records as f64
    };

    // Outside-in reconciliation: traced count × replayed cost per layer
    // against the untraced event loop. The rebuild count is estimated
    // from transmission times (each rebuild also queries every node's
    // position), so the residual is an estimate too.
    let terms = [
        ("sim.queue", events as f64 * hold.ns() / 1e9),
        (
            "mobility",
            (rebuilds * cfg.n_peers as u64) as f64 * pos.ns() / 1e9,
        ),
        ("net.topology", rebuilds as f64 * rebuild.ns() / 1e9),
        ("net.stack", rx as f64 * on_frame.ns() / 1e9),
        ("cache", queries as f64 * cache_op.ns() / 1e9),
        ("trace", inner_records as f64 * record_ns / 1e9),
    ];
    let residual = run_s - terms.iter().map(|t| t.1).sum::<f64>();
    let mut table = vec![format!(
        "{}: {} cells x {rounds} untraced+traced rounds, {attempted} attempted, {failed} failed",
        w.name,
        w.cells.len()
    )];
    table.push(format!(
        "reconcile {}: core.run_s {run_s:.4} s = {} + residual (estimated) {residual:.4} s",
        w.name,
        terms
            .iter()
            .map(|(n, s)| format!("{n} {s:.4} s"))
            .collect::<Vec<_>>()
            .join(" + ")
    ));

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut metrics: Vec<(String, &'static str, f64)> = vec![
        ("sim.events".into(), "count", events as f64),
        ("sim.queue.pushes".into(), "count", pushes as f64),
        ("sim.queue.peak_len".into(), "count", peak_len as f64),
        ("sim.events_per_s".into(), "1/s", events as f64 / run_s),
        ("sim.queue.hold_ns".into(), "ns", hold.ns()),
        ("mobility.position_ns".into(), "ns", pos.ns()),
        ("net.topology.rebuild_us".into(), "us", rebuild.ns() / 1e3),
        ("net.topology.rebuilds_est".into(), "count", rebuilds as f64),
        ("net.topology.mean_degree".into(), "count", mean_degree),
        ("net.stack.on_frame_ns".into(), "ns", on_frame.ns()),
        (
            "net.msg_send".into(),
            "count",
            sum(&|t| count(t, EventKind::MsgSend)) as f64,
        ),
        (
            "net.msg_deliver".into(),
            "count",
            sum(&|t| count(t, EventKind::MsgDeliver)) as f64,
        ),
        ("net.flood_dup_drop".into(), "count", dup as f64),
        (
            "net.mac_drop".into(),
            "count",
            sum(&|t| count(t, EventKind::MacDrop)) as f64,
        ),
        (
            "net.discovery_start".into(),
            "count",
            sum(&|t| count(t, EventKind::DiscoveryStart)) as f64,
        ),
        (
            "net.flood_useful_ratio".into(),
            "fraction",
            ratio(rx.saturating_sub(dup), rx),
        ),
        ("cache.op_ns".into(), "ns", cache_op.ns()),
        (
            "cache.hit_ratio".into(),
            "fraction",
            ratio(served_by[1] + served_by[2], served_by.iter().sum()),
        ),
        ("core.run_s".into(), "s", run_s),
        ("core.residual_s".into(), "s", residual),
        (
            "core.retransmits".into(),
            "count",
            reports.iter().map(|r| r.faults.retransmits).sum::<u64>() as f64,
        ),
        (
            "core.resyncs".into(),
            "count",
            reports.iter().map(|r| r.faults.resyncs).sum::<u64>() as f64,
        ),
        (
            "core.write_ack_ratio".into(),
            "fraction",
            ratio(w_acked, w_issued),
        ),
        (
            "core.write_fail_ratio".into(),
            "fraction",
            ratio(w_failed, w_issued),
        ),
    ];
    for name in PROFILE_BUCKETS {
        let nanos: u128 = traced.iter().map(|t| bucket(t, name).1).sum();
        metrics.push((
            format!("core.profile.{}_share", name.replace(':', "_")),
            "fraction",
            nanos as f64 / wall_ns.max(1) as f64,
        ));
    }
    metrics.extend([
        ("trace.events".into(), "count", trace_events as f64),
        ("trace.record_ns".into(), "ns", record_ns),
        (
            "trace.bytes_per_event".into(),
            "B",
            ratio(journal_bytes, inner_records),
        ),
        ("trace.journal_mb".into(), "MB", journal_bytes as f64 / 1e6),
        ("bench.trace_overhead".into(), "ratio", traced_run_s / run_s),
    ]);
    table.push(
        "  core.profile.* shares are nested wall-time buckets of the profiled run, not exclusive layer time"
            .into(),
    );
    table.extend(spans.summary());
    spans.write(w.name);
    Layers {
        attempted,
        failed,
        metrics,
        table,
    }
}
