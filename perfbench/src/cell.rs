//! Running one cell, untraced or traced, and checking what it reports.

use std::time::Instant;

use mp2p_rpcc::{RunReport, World};
use mp2p_sim::{PerfReport, SimTime};
use mp2p_trace::{EventKind, JsonlSink, NullSink, TraceEvent, TraceSink};

use crate::util::{fnv1a, DiscardWriter};
use crate::workload::Cell;

/// What the flight recorder of a recorded cell wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Journal {
    pub bytes: u64,
    pub digest: u64,
    pub records: u64,
}

/// One finished cell run.
#[derive(Debug)]
pub struct Outcome {
    pub report: RunReport,
    /// FNV-1a of `RunReport::to_json` with the profiler's section removed.
    pub digest: u64,
    pub journal: Option<Journal>,
    /// Host seconds in `World::new` plus sink construction.
    pub setup_s: f64,
    /// Host seconds in `World::run_traced`.
    pub run_s: f64,
    /// Accounting identities the report broke (empty when correct).
    pub breaches: Vec<String>,
}

/// The traced run's extras: what the benchmark's own sink saw and the
/// in-program profiler's report.
#[derive(Debug)]
pub struct Traced {
    pub outcome: Outcome,
    pub perf: PerfReport,
    pub counts: [u64; EventKind::ALL.len()],
    /// Events handed to the inner sink, and the host nanoseconds those
    /// `record()` calls took.
    pub inner_records: u64,
    pub inner_record_ns: u128,
    /// Topology rebuilds estimated from outside: the world rebuilds its
    /// snapshot lazily when one older than `topology_refresh` is needed,
    /// so each transmission that finds the last estimated rebuild stale
    /// counts one.
    pub est_rebuilds: u64,
}

/// Counts every event by kind and times each `record()` into the sink
/// the workload would have used. Always enabled, so the world emits
/// every event even when the inner sink is a [`NullSink`].
struct CountingSink {
    inner: Box<dyn TraceSink>,
    counts: [u64; EventKind::ALL.len()],
    inner_records: u64,
    inner_record_ns: u128,
    refresh_ms: u64,
    built_ms: Option<u64>,
    est_rebuilds: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        self.counts[event.kind().index()] += 1;
        if let TraceEvent::MsgSend { .. } = event {
            let t = at.as_millis();
            if self.built_ms.is_none_or(|b| t - b > self.refresh_ms) {
                self.built_ms = Some(t);
                self.est_rebuilds += 1;
            }
        }
        if self.inner.enabled() {
            let t = Instant::now();
            self.inner.record(at, event);
            self.inner_record_ns += t.elapsed().as_nanos();
            self.inner_records += 1;
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The sink a cell runs with when nothing is measuring it: a schema-4
/// journal into a discarding writer for recorded cells, else none.
fn workload_sink(cell: &Cell) -> (Box<dyn TraceSink>, Option<DiscardWriter>) {
    if cell.recorded {
        let writer = DiscardWriter::default();
        let sink = JsonlSink::new_v4_with_warmup(Box::new(writer.clone()), cell.cfg.warmup);
        (Box::new(sink), Some(writer))
    } else {
        (Box::new(NullSink), None)
    }
}

/// Runs `cell` the way a user would: no profiler, no benchmark sink.
pub fn run_untraced(cell: &Cell) -> Outcome {
    let cfg = cell.cfg.clone();
    let t0 = Instant::now();
    let mut world = World::new(cfg);
    let (sink, writer) = workload_sink(cell);
    if writer.is_some() {
        world.set_tracer(sink);
    }
    let t1 = Instant::now();
    let (report, sink) = world.run_traced();
    let run_s = t1.elapsed().as_secs_f64();
    finish(
        report,
        sink.as_any(),
        writer,
        (t1 - t0).as_secs_f64(),
        run_s,
    )
}

/// Runs `cell` with the profiler on and the workload's sink wrapped in a
/// [`CountingSink`].
pub fn run_traced(cell: &Cell) -> Traced {
    let cfg = cell.cfg.clone();
    let t0 = Instant::now();
    let mut world = World::new(cfg);
    let (inner, writer) = workload_sink(cell);
    world.enable_profiling();
    world.set_tracer(Box::new(CountingSink {
        inner,
        counts: [0; EventKind::ALL.len()],
        inner_records: 0,
        inner_record_ns: 0,
        refresh_ms: cell.cfg.topology_refresh.as_millis(),
        built_ms: None,
        est_rebuilds: 0,
    }));
    let t1 = Instant::now();
    let (mut report, sink) = world.run_traced();
    let run_s = t1.elapsed().as_secs_f64();
    let perf = report.perf.take().expect("profiling was enabled");
    let counting = sink
        .as_any()
        .downcast_ref::<CountingSink>()
        .expect("the traced run installs a CountingSink");
    let outcome = finish(
        report,
        counting.inner.as_any(),
        writer,
        (t1 - t0).as_secs_f64(),
        run_s,
    );
    Traced {
        outcome,
        perf,
        counts: counting.counts,
        inner_records: counting.inner_records,
        inner_record_ns: counting.inner_record_ns,
        est_rebuilds: counting.est_rebuilds,
    }
}

fn finish(
    report: RunReport,
    sink: &dyn std::any::Any,
    writer: Option<DiscardWriter>,
    setup_s: f64,
    run_s: f64,
) -> Outcome {
    let mut breaches = check(&report);
    let journal = writer.map(|w| {
        let (bytes, digest) = w.summary();
        let records = match sink.downcast_ref::<JsonlSink>() {
            Some(jsonl) => {
                if let Some(err) = jsonl.io_error() {
                    breaches.push(format!("journal write failed: {err}"));
                }
                if jsonl.journal_bytes() != bytes {
                    breaches.push(format!(
                        "journal sink counted {} bytes, writer saw {bytes}",
                        jsonl.journal_bytes()
                    ));
                }
                jsonl.records()
            }
            None => {
                breaches.push("recorded cell lost its journal sink".into());
                0
            }
        };
        if records == 0 {
            breaches.push("recorded cell wrote no events".into());
        }
        Journal {
            bytes,
            digest,
            records,
        }
    });
    let mut plain = report.clone();
    plain.perf = None;
    Outcome {
        digest: fnv1a(plain.to_json().as_bytes()),
        report,
        journal,
        setup_s,
        run_s,
        breaches,
    }
}

/// The report's accounting identities.
fn check(r: &RunReport) -> Vec<String> {
    let mut breaches = Vec::new();
    let served = r.queries_served();
    if served + r.queries_failed > r.queries_issued {
        breaches.push(format!(
            "served {served} + failed {} > issued {}",
            r.queries_failed, r.queries_issued
        ));
    }
    let by: u64 = r.served_by.iter().sum();
    if by != served {
        breaches.push(format!("served_by sums to {by}, served is {served}"));
    }
    if r.audit.stale_served() > served {
        breaches.push(format!(
            "stale {} > served {served}",
            r.audit.stale_served()
        ));
    }
    if r.writes_completed() + r.writes_failed > r.writes_issued {
        breaches.push(format!(
            "writes acked {} + failed {} > issued {}",
            r.writes_completed(),
            r.writes_failed,
            r.writes_issued
        ));
    }
    if r.queries_issued == 0 {
        breaches.push("no queries were measured".into());
    }
    breaches
}
