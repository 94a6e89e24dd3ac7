//! Trace sinks: where flight-recorder events go.
//!
//! Four real sinks plus a disabled default:
//!
//! * [`NullSink`] — reports `enabled() == false`; the simulation keeps
//!   its hot path allocation-free by skipping emission entirely.
//! * [`RingSink`] — bounded in-memory ring, for tests and post-mortems.
//! * [`JsonlSink`] — streams one JSON object per line to any writer.
//! * [`SummarySink`] — rebuilds traffic/latency instruments from the
//!   event stream alone, cross-checkable against the simulation's own
//!   [`mp2p_metrics::TrafficStats`] / [`mp2p_metrics::LatencyStats`].
//! * [`TeeSink`] — fans each event out to several sinks.

use std::any::Any;
use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use mp2p_metrics::{LatencyStats, TrafficStats};
use mp2p_sim::{SimDuration, SimTime};

use crate::event::{EventKind, TraceEvent};

/// A destination for flight-recorder events.
///
/// Implementations must be cheap per [`TraceSink::record`] call: the
/// simulation can emit an event per MAC transmission.
pub trait TraceSink {
    /// Whether the producer should bother emitting at all. The driver
    /// checks this once per emission site; [`NullSink`] returns `false`
    /// so a disabled recorder costs one boolean test.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event stamped with simulated time `at`.
    fn record(&mut self, at: SimTime, event: &TraceEvent);

    /// Flushes any buffered output (called once at end of run).
    fn flush(&mut self) {}

    /// Bytes this sink has durably serialised (journal output). In-memory
    /// sinks report 0; [`TeeSink`] sums its children. Used by the perf
    /// observatory's allocation counters.
    fn bytes_written(&self) -> u64 {
        0
    }

    /// Downcasting support, so callers of `World::run_traced` can get
    /// their concrete sink back.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The disabled sink: drops everything and reports `enabled() == false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _at: SimTime, _event: &TraceEvent) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A bounded in-memory ring of the most recent events.
///
/// # Example
///
/// ```
/// use mp2p_sim::{NodeId, SimTime};
/// use mp2p_trace::{RingSink, TraceEvent, TraceSink};
///
/// let mut ring = RingSink::new(2);
/// for i in 0..5 {
///     let at = SimTime::from_millis(i);
///     ring.record(at, &TraceEvent::NodeUp { node: NodeId::new(0) });
/// }
/// assert_eq!(ring.len(), 2);
/// assert_eq!(ring.total_recorded(), 5);
/// assert_eq!(ring.iter().next().unwrap().0, SimTime::from_millis(3));
/// ```
#[derive(Debug, Clone)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<(SimTime, TraceEvent)>,
    total: u64,
}

impl RingSink {
    /// Creates a ring holding at most `cap` events.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be non-zero");
        RingSink {
            cap,
            buf: VecDeque::with_capacity(cap.min(1 << 16)),
            total: 0,
        }
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (> `len()` iff the ring wrapped).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Iterates retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.buf.iter()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((at, *event));
        self.total += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The journal schema version every [`JsonlSink`] writes and the
/// [`crate::reader::JournalReader`] accepts. Schema 4 is the 38-kind
/// vocabulary ending with the causal-provenance kinds
/// ([`EventKind::FrameBorn`], [`EventKind::FrameHop`],
/// [`EventKind::FrameFate`], [`EventKind::CopyLineage`]).
pub const JOURNAL_SCHEMA: u64 = 4;

/// Streams events as JSON Lines to a writer: one header object
/// (`{"schema":4,"kinds":38,"warmup_ms":…}`) followed by one object per
/// event.
///
/// Serialisation is hand-rolled via [`crate::json`] — the build
/// environment has no crates.io access, so there is no serde. On an I/O
/// error the sink stops writing and remembers the failure instead of
/// panicking mid-simulation; check [`JsonlSink::io_error`] after the run.
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write>>,
    line: String,
    records: u64,
    bytes: u64,
    io_error: Option<io::Error>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("records", &self.records)
            .field("io_error", &self.io_error)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Wraps an arbitrary writer and stamps `warmup` into the header so
    /// offline consumers can reproduce the run's censoring rules.
    pub fn new_v4_with_warmup(writer: Box<dyn Write>, warmup: SimDuration) -> Self {
        let mut sink = JsonlSink {
            out: BufWriter::new(writer),
            line: String::with_capacity(160),
            records: 0,
            bytes: 0,
            io_error: None,
        };
        sink.write_header(warmup);
        sink
    }

    /// Creates (truncating) `path` and streams to it, stamping `warmup`
    /// into the header.
    pub fn create_v4_with_warmup(path: &Path, warmup: SimDuration) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new_v4_with_warmup(Box::new(file), warmup))
    }

    /// Writes the header line. The header is metadata, not an event: it
    /// does not count toward [`JsonlSink::records`].
    fn write_header(&mut self, warmup: SimDuration) {
        self.line.clear();
        self.line.push_str("{\"schema\":");
        self.line.push_str(&JOURNAL_SCHEMA.to_string());
        self.line.push_str(",\"kinds\":");
        self.line.push_str(&EventKind::ALL.len().to_string());
        self.line.push_str(",\"warmup_ms\":");
        self.line.push_str(&warmup.as_millis().to_string());
        self.line.push_str("}\n");
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.bytes += self.line.len() as u64,
            Err(e) => self.io_error = Some(e),
        }
    }

    /// Event lines successfully written so far (header excluded).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The first I/O error hit, if any (writing stops after it).
    pub fn io_error(&self) -> Option<&io::Error> {
        self.io_error.as_ref()
    }

    /// Journal bytes successfully handed to the writer (header included).
    pub fn journal_bytes(&self) -> u64 {
        self.bytes
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        if self.io_error.is_some() {
            return;
        }
        self.line.clear();
        event.write_json(at, &mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => {
                self.records += 1;
                self.bytes += self.line.len() as u64;
            }
            Err(e) => self.io_error = Some(e),
        }
    }

    fn flush(&mut self) {
        if self.io_error.is_none() {
            if let Err(e) = self.out.flush() {
                self.io_error = Some(e);
            }
        }
    }

    fn bytes_written(&self) -> u64 {
        self.bytes
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Rebuilds the run's aggregate instruments from the event stream alone.
///
/// Given the same warm-up the simulation used, the traffic and latency
/// instruments this sink accumulates are *exactly* equal to the ones in
/// the simulation's end-of-run report: [`TraceEvent::MsgSend`] events
/// carry class and frame size and are counted iff they occur after
/// warm-up, and [`TraceEvent::QueryServed`] events carry their issue
/// instant so latency (`at - issued`) is measured iff the query was
/// issued after warm-up — the same censoring rules the world applies.
/// The per-kind event counts ignore warm-up (the recorder sees all).
#[derive(Debug, Clone)]
pub struct SummarySink {
    warmup: SimDuration,
    traffic: TrafficStats,
    latency: LatencyStats,
    counts: [u64; EventKind::ALL.len()],
}

impl SummarySink {
    /// Creates a summary sink using the simulation's warm-up period.
    pub fn new(warmup: SimDuration) -> Self {
        SummarySink {
            warmup,
            traffic: TrafficStats::default(),
            latency: LatencyStats::default(),
            counts: [0; EventKind::ALL.len()],
        }
    }

    /// Post-warm-up traffic rebuilt from `MsgSend` events.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Latency of queries issued after warm-up, rebuilt from
    /// `QueryServed` events.
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// How many events of `kind` were recorded (warm-up included).
    pub fn count_of(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total events recorded across all kinds.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl TraceSink for SummarySink {
    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        self.counts[event.kind().index()] += 1;
        match *event {
            TraceEvent::MsgSend { class, bytes, .. }
                if at.saturating_since(SimTime::ZERO) >= self.warmup =>
            {
                self.traffic.record(class, bytes);
            }
            TraceEvent::QueryServed { issued, .. }
                if issued.saturating_since(SimTime::ZERO) >= self.warmup =>
            {
                self.latency.record(at.saturating_since(issued));
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Fans every event out to several child sinks.
pub struct TeeSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TeeSink {
    /// Builds a tee over `sinks`.
    pub fn new(sinks: Vec<Box<dyn TraceSink>>) -> Self {
        TeeSink { sinks }
    }

    /// The child sinks, for downcasting after a run.
    pub fn sinks(&self) -> &[Box<dyn TraceSink>] {
        &self.sinks
    }

    /// Consumes the tee, returning its children.
    pub fn into_sinks(self) -> Vec<Box<dyn TraceSink>> {
        self.sinks
    }
}

impl TraceSink for TeeSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        for sink in &mut self.sinks {
            if sink.enabled() {
                sink.record(at, event);
            }
        }
    }

    fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }

    fn bytes_written(&self) -> u64 {
        self.sinks.iter().map(|s| s.bytes_written()).sum()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LevelTag, ServedBy};
    use crate::json;
    use mp2p_metrics::MessageClass;
    use mp2p_sim::NodeId;

    fn send(node: u32, class: MessageClass, bytes: u32) -> TraceEvent {
        TraceEvent::MsgSend {
            node: NodeId::new(node),
            class,
            bytes,
            dest: None,
            span: None,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.record(
            SimTime::ZERO,
            &TraceEvent::NodeUp {
                node: NodeId::new(0),
            },
        );
        assert!(sink.as_any().downcast_ref::<NullSink>().is_some());
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let mut ring = RingSink::new(3);
        for i in 0..10u64 {
            ring.record(SimTime::from_millis(i), &send(0, MessageClass::Poll, 48));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.total_recorded(), 10);
        let times: Vec<u64> = ring.iter().map(|(t, _)| t.as_millis()).collect();
        assert_eq!(times, vec![7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn ring_rejects_zero_capacity() {
        let _ = RingSink::new(0);
    }

    #[test]
    fn jsonl_writes_one_valid_line_per_event() {
        let buf: Vec<u8> = Vec::new();
        let mut sink = JsonlSink::new_v4_with_warmup(Box::new(buf), SimDuration::ZERO);
        for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
            sink.record(SimTime::from_millis(i as u64), &event);
        }
        let n = sink.records();
        sink.flush();
        assert!(sink.io_error().is_none());
        assert_eq!(n, crate::event::tests::samples().len() as u64);
        // The writer is boxed away; serialisation itself is validated in
        // the event module, and the end-to-end file path is covered by
        // the world-level tests.
    }

    #[test]
    fn summary_counts_and_filters_by_warmup() {
        let warmup = SimDuration::from_secs(10);
        let mut sink = SummarySink::new(warmup);

        // One send during warm-up (ignored by traffic), one after.
        sink.record(SimTime::from_millis(500), &send(0, MessageClass::Poll, 48));
        sink.record(
            SimTime::from_millis(12_000),
            &send(0, MessageClass::Poll, 48),
        );

        // A query issued during warm-up (latency ignored) and one after.
        let served = |issued_ms: u64| TraceEvent::QueryServed {
            node: NodeId::new(1),
            query: 1,
            level: LevelTag::Weak,
            served_by: ServedBy::Cache,
            issued: SimTime::from_millis(issued_ms),
        };
        sink.record(SimTime::from_millis(900), &served(500));
        sink.record(SimTime::from_millis(11_250), &served(11_000));

        assert_eq!(sink.traffic().transmissions(), 1);
        assert_eq!(sink.traffic().by_class(MessageClass::Poll), 1);
        assert_eq!(sink.latency().count(), 1);
        assert_eq!(sink.latency().mean(), SimDuration::from_millis(250));
        // Counts see everything, warm-up included.
        assert_eq!(sink.count_of(EventKind::MsgSend), 2);
        assert_eq!(sink.count_of(EventKind::QueryServed), 2);
        assert_eq!(sink.total_events(), 4);
    }

    #[test]
    fn tee_fans_out_and_is_downcastable() {
        let mut tee = TeeSink::new(vec![
            Box::new(NullSink),
            Box::new(RingSink::new(8)),
            Box::new(SummarySink::new(SimDuration::ZERO)),
        ]);
        assert!(tee.enabled());
        tee.record(
            SimTime::from_millis(5),
            &send(2, MessageClass::Update, 1_064),
        );
        tee.flush();

        let ring = tee
            .sinks()
            .iter()
            .find_map(|s| s.as_any().downcast_ref::<RingSink>())
            .expect("ring child");
        assert_eq!(ring.len(), 1);
        let summary = tee
            .sinks()
            .iter()
            .find_map(|s| s.as_any().downcast_ref::<SummarySink>())
            .expect("summary child");
        assert_eq!(summary.traffic().bytes(), 1_064);
        // The NullSink child must have been skipped, not recorded into.
        assert_eq!(summary.total_events(), 1);
    }

    #[test]
    fn tee_of_only_null_sinks_is_disabled() {
        let tee = TeeSink::new(vec![Box::new(NullSink), Box::new(NullSink)]);
        assert!(!tee.enabled());
    }

    #[test]
    fn jsonl_file_roundtrip_is_parseable() {
        let path =
            std::env::temp_dir().join(format!("mp2p-trace-sink-test-{}.jsonl", std::process::id()));
        {
            let mut sink =
                JsonlSink::create_v4_with_warmup(&path, SimDuration::ZERO).expect("create jsonl");
            for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
                sink.record(SimTime::from_millis(i as u64 * 10), &event);
            }
            sink.flush();
            assert!(sink.io_error().is_none());
        }
        let contents = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = contents.lines().collect();
        // Header line + one line per event.
        assert_eq!(lines.len(), crate::event::tests::samples().len() + 1);
        assert_eq!(lines[0], "{\"schema\":4,\"kinds\":38,\"warmup_ms\":0}");
        for line in lines {
            assert!(json::is_valid(line), "bad line: {line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_header_carries_warmup_and_is_not_a_record() {
        let buf: Vec<u8> = Vec::new();
        let mut sink = JsonlSink::new_v4_with_warmup(Box::new(buf), SimDuration::from_secs(60));
        assert_eq!(sink.records(), 0);
        sink.record(SimTime::from_millis(5), &send(0, MessageClass::Poll, 48));
        sink.flush();
        assert!(sink.io_error().is_none());
        assert_eq!(sink.records(), 1);
    }

    #[test]
    fn ring_high_volume_wrap_keeps_newest_in_order() {
        const CAP: usize = 1_000;
        const TOTAL: u64 = 100_000;
        let mut ring = RingSink::new(CAP);
        for i in 0..TOTAL {
            ring.record(SimTime::from_millis(i), &send(0, MessageClass::Poll, 48));
        }
        assert_eq!(ring.len(), CAP);
        assert_eq!(ring.total_recorded(), TOTAL);
        // The retained window is exactly the newest CAP events, oldest
        // first, with no gaps or reordering.
        for (k, (t, _)) in ring.iter().enumerate() {
            assert_eq!(t.as_millis(), TOTAL - CAP as u64 + k as u64);
        }
    }

    #[test]
    fn tee_delivers_to_both_children_in_order() {
        const TOTAL: u64 = 50_000;
        let mut tee = TeeSink::new(vec![
            Box::new(RingSink::new(TOTAL as usize)),
            Box::new(RingSink::new(64)),
        ]);
        for i in 0..TOTAL {
            let class = if i % 2 == 0 {
                MessageClass::Poll
            } else {
                MessageClass::Update
            };
            tee.record(SimTime::from_millis(i), &send((i % 7) as u32, class, 48));
        }
        tee.flush();

        let rings: Vec<&RingSink> = tee
            .sinks()
            .iter()
            .map(|s| s.as_any().downcast_ref::<RingSink>().expect("ring child"))
            .collect();
        // Both children saw every event...
        assert_eq!(rings[0].total_recorded(), TOTAL);
        assert_eq!(rings[1].total_recorded(), TOTAL);
        assert_eq!(rings[0].len(), TOTAL as usize);
        assert_eq!(rings[1].len(), 64);
        // ...in the same order: the small ring's retained tail is
        // exactly the tail of the large ring's full record.
        let tail_of_big: Vec<_> = rings[0].iter().skip(TOTAL as usize - 64).collect();
        let small: Vec<_> = rings[1].iter().collect();
        assert_eq!(tail_of_big, small);
        // And the full stream arrived strictly in emission order.
        for (k, (t, _)) in rings[0].iter().enumerate() {
            assert_eq!(t.as_millis(), k as u64);
        }
    }
}
