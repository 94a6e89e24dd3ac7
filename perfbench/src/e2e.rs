//! End-to-end metrics, from untraced runs only.

use std::time::{Duration, Instant};

use mp2p_metrics::LatencyStats;
use mp2p_rpcc::RunReport;

use crate::cell::{run_untraced, Journal, Outcome};
use crate::reference;
use crate::util::{median, min, peak_rss_mb};
use crate::workload::Workload;

/// Every cell runs at least twice, so repeat-determinism is always
/// checked.
const MIN_PASSES: usize = 2;

/// Per-cell samples across the passes of one run.
struct CellSamples {
    label: String,
    horizon_s: f64,
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    /// Mean of the reference runs right before and after each sample.
    ref_s: Vec<f64>,
    first: Option<Outcome>,
}

impl CellSamples {
    /// Median over the passes of sample `k` of `xs` divided by the
    /// reference time around it, in host seconds at the reference's
    /// nominal speed.
    fn normalized(&self, xs: &[f64]) -> f64 {
        let ratios: Vec<f64> = xs.iter().zip(&self.ref_s).map(|(x, r)| x / r).collect();
        median(&ratios) * reference::NOMINAL_S
    }
}

/// The pooled result of one untraced run of a workload.
pub struct E2e {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` of every end-to-end metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Rows printed for a human reader, not part of the JSON result.
    pub table: Vec<String>,
}

/// Compares a repeat against the cell's first run; returns what differs.
pub fn repeat_breaches(first: &Outcome, again: &Outcome, what: &str) -> Vec<String> {
    let mut out = Vec::new();
    if first.digest != again.digest {
        out.push(format!(
            "{what}: report digest {:016x} != first run's {:016x}",
            again.digest, first.digest
        ));
    }
    if first.journal != again.journal {
        out.push(format!(
            "{what}: journal {:?} != first run's {:?}",
            again.journal, first.journal
        ));
    }
    out
}

/// Runs the workload's cells one after another, pass after pass: at
/// least [`MIN_PASSES`] whole passes, then on through the next pass while
/// another run of the next cell still ends within `seconds`. The
/// reference runs before the first cell and after every cell, so each
/// sample is bracketed by two reference runs.
pub fn measure(w: &Workload, seconds: f64) -> E2e {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cells: Vec<CellSamples> = w
        .cells
        .iter()
        .map(|c| CellSamples {
            label: c.label.clone(),
            horizon_s: c.cfg.sim_time.as_secs_f64(),
            setup_s: Vec::new(),
            run_s: Vec::new(),
            ref_s: Vec::new(),
            first: None,
        })
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut before = reference::time();
    'passes: for pass in 0.. {
        for (cell, samples) in w.cells.iter().zip(cells.iter_mut()) {
            if pass >= MIN_PASSES {
                // Another run of this cell and the reference after it.
                let next = samples.setup_s[0] + samples.run_s[0] + before;
                if Instant::now() + Duration::from_secs_f64(next) > deadline {
                    break 'passes;
                }
            }
            let out = run_untraced(cell);
            let after = reference::time();
            attempted += 1;
            let mut breaches = out.breaches.clone();
            if let Some(first) = &samples.first {
                breaches.extend(repeat_breaches(first, &out, "repeat"));
            }
            if !breaches.is_empty() {
                failed += 1;
                for b in &breaches {
                    eprintln!("FAILED {} {} pass {pass}: {b}", w.name, cell.label);
                }
            }
            samples.setup_s.push(out.setup_s);
            samples.run_s.push(out.run_s);
            samples.ref_s.push((before + after) / 2.0);
            before = after;
            if samples.first.is_none() {
                println!(
                    "cell {} {}: report fnv {:016x}{}",
                    w.name,
                    cell.label,
                    out.digest,
                    out.journal.map_or(String::new(), |j| format!(
                        ", journal fnv {:016x} ({} bytes)",
                        j.digest, j.bytes
                    ))
                );
                samples.first = Some(out);
            }
        }
    }
    pool(w, &cells, attempted, failed)
}

fn pool(w: &Workload, cells: &[CellSamples], attempted: u64, failed: u64) -> E2e {
    let reports: Vec<&RunReport> = cells
        .iter()
        .map(|c| &c.first.as_ref().expect("every cell ran").report)
        .collect();
    let journals: Vec<Journal> = cells
        .iter()
        .filter_map(|c| c.first.as_ref().and_then(|o| o.journal))
        .collect();

    // Host metrics: each cell's median over its samples of its time in
    // units of the reference run around it, summed over the cells. A slow
    // spell of a shared host slows the reference too and cancels.
    let setup_s: f64 = cells.iter().map(|c| c.normalized(&c.setup_s)).sum();
    let run_s: f64 = cells.iter().map(|c| c.normalized(&c.run_s)).sum();
    let wall_run_s: f64 = cells.iter().map(|c| median(&c.run_s)).sum();
    let sim_s: f64 = cells.iter().map(|c| c.horizon_s).sum();
    let refs: Vec<f64> = cells.iter().flat_map(|c| c.ref_s.iter().copied()).collect();
    let outcomes = Outcomes::pool(&reports);

    let samples: Vec<usize> = cells.iter().map(|c| c.run_s.len()).collect();
    let mut table = vec![format!(
        "{}: {} cells, {}-{} runs each, {attempted} attempted, {failed} failed",
        w.name,
        cells.len(),
        samples.iter().min().expect("a workload has cells"),
        samples.iter().max().expect("a workload has cells"),
    )];
    table.push(format!(
        "  reference run: median {:.5} s, min {:.5} s over {} samples (nominal {} s); wall-clock sim_s_per_s {:.1} before rescaling",
        median(&refs),
        min(&refs),
        refs.len(),
        reference::NOMINAL_S,
        sim_s / wall_run_s
    ));
    for c in cells {
        table.push(format!(
            "  {:<10} setup {:.5} s  run {:.4} s (median of {})  {:.1} sim s/s  query_fail {:.3}",
            c.label,
            median(&c.setup_s),
            median(&c.run_s),
            c.run_s.len(),
            c.horizon_s / median(&c.run_s),
            c.first
                .as_ref()
                .map_or(f64::NAN, |o| o.report.failure_rate())
        ));
    }
    let buckets: Vec<String> = (0..LatencyStats::BUCKETS)
        .filter(|&i| outcomes.latency.bucket(i) > 0)
        .map(|i| {
            format!(
                "{}:{}",
                if i == 0 { 0 } else { 1u64 << i },
                outcomes.latency.bucket(i)
            )
        })
        .collect();
    table.push(format!(
        "  {} served, latency bucket bounds p50 <= {:.3} s, p95 <= {:.3} s; histogram (ms from: count) {}",
        outcomes.served,
        outcomes.latency.percentile(0.5).as_secs_f64(),
        outcomes.latency.percentile(0.95).as_secs_f64(),
        buckets.join(" ")
    ));
    if outcomes.writes_issued > 0 {
        table.push(format!(
            "  write_fail_ratio {:.6} ({} of {} writes failed, {} acked)",
            outcomes.writes_failed as f64 / outcomes.writes_issued as f64,
            outcomes.writes_failed,
            outcomes.writes_issued,
            outcomes.writes_acked
        ));
    }
    if !journals.is_empty() {
        let bytes: u64 = journals.iter().map(|j| j.bytes).sum();
        let records: u64 = journals.iter().map(|j| j.records).sum();
        table.push(format!(
            "  journal_mb {:.3} ({records} events, {:.1} bytes/event)",
            bytes as f64 / 1e6,
            bytes as f64 / records.max(1) as f64
        ));
    }

    let metrics = vec![
        ("setup_s", "s", setup_s),
        ("sim_s_per_s", "1/s", sim_s / run_s),
        ("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN)),
        ("fresh_fraction", "fraction", outcomes.fresh_fraction()),
        ("query_fail_ratio", "fraction", outcomes.query_fail_ratio()),
        ("tx_per_min", "1/min", outcomes.tx_per_min()),
        (
            "latency_p50_sim_s",
            "s",
            interpolated_percentile(&outcomes.latency, 0.5),
        ),
        (
            "latency_p95_sim_s",
            "s",
            interpolated_percentile(&outcomes.latency, 0.95),
        ),
    ];
    E2e {
        attempted,
        failed,
        metrics,
        table,
    }
}

/// Simulated outcomes pooled over a workload's cells.
struct Outcomes {
    served: u64,
    stale: u64,
    issued: u64,
    failed: u64,
    transmissions: u64,
    measured_min: f64,
    writes_issued: u64,
    writes_failed: u64,
    writes_acked: u64,
    latency: LatencyStats,
}

impl Outcomes {
    fn pool(reports: &[&RunReport]) -> Self {
        let mut o = Outcomes {
            served: 0,
            stale: 0,
            issued: 0,
            failed: 0,
            transmissions: 0,
            measured_min: 0.0,
            writes_issued: 0,
            writes_failed: 0,
            writes_acked: 0,
            latency: LatencyStats::default(),
        };
        for r in reports {
            o.served += r.queries_served();
            o.stale += r.audit.stale_served();
            o.issued += r.queries_issued;
            o.failed += r.queries_failed;
            o.transmissions += r.traffic.transmissions();
            o.measured_min += r.measured.as_secs_f64() / 60.0;
            o.writes_issued += r.writes_issued;
            o.writes_failed += r.writes_failed;
            o.writes_acked += r.writes_completed();
            o.latency.merge(&r.latency);
        }
        o
    }

    fn fresh_fraction(&self) -> f64 {
        (self.served - self.stale) as f64 / self.served.max(1) as f64
    }

    fn query_fail_ratio(&self) -> f64 {
        self.failed as f64 / self.issued.max(1) as f64
    }

    fn tx_per_min(&self) -> f64 {
        self.transmissions as f64 / self.measured_min
    }
}

/// The `p`-quantile of a log₂ latency histogram, interpolated linearly
/// inside the bucket that holds it (bucket `i` covers `[2^i, 2^(i+1))`
/// ms, bucket 0 `[0, 2)` ms, the top clamped to the largest sample), in
/// seconds. `LatencyStats::percentile` returns the bucket's upper bound,
/// which moves only in factor-of-two steps.
fn interpolated_percentile(l: &LatencyStats, p: f64) -> f64 {
    if l.count() == 0 {
        return 0.0;
    }
    let rank = ((l.count() as f64) * p).ceil().max(1.0);
    let mut seen = 0.0;
    for i in 0..LatencyStats::BUCKETS {
        let n = l.bucket(i) as f64;
        if seen + n >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = ((1u64 << (i + 1)) as f64).min(l.max().as_millis() as f64 + 1.0);
            let ms = lo + (hi - lo).max(0.0) * (rank - seen) / n;
            return ms / 1e3;
        }
        seen += n;
    }
    l.max().as_secs_f64()
}
