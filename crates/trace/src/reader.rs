//! Offline journal reading: parse a JSONL trace back into typed events.
//!
//! A journal written by [`crate::JsonlSink`] starts with one header
//! object (`{"schema":4,...}`) followed by one event object per line.
//! [`JournalReader`] streams it line-by-line — it never buffers the whole
//! file — accepting exactly [`JOURNAL_SCHEMA`] up front and turning each
//! line back into a `(SimTime, TraceEvent)` pair via the label inverses
//! (`EventKind::from_label` and friends). Serialise-then-parse is the identity on every event variant (see the
//! roundtrip test).

use std::fmt;
use std::io::{self, BufRead};

use mp2p_metrics::MessageClass;
use mp2p_sim::{ItemId, NodeId, SimTime};

use crate::event::{
    BlameCause, EventKind, FrameFateKind, LevelTag, RelayTransitionKind, ServedBy, SpanPhase,
    TraceEvent,
};
use crate::json::{self, Value};
use crate::sink::JOURNAL_SCHEMA;

/// The journal's leading metadata record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Schema version (always [`JOURNAL_SCHEMA`] once validated).
    pub schema: u64,
    /// How many event kinds the writer knew about.
    pub kinds: u64,
    /// The run's warm-up period in milliseconds (censoring boundary).
    pub warmup_ms: u64,
}

/// Why reading a journal failed.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The journal is empty or its first line is not a header object.
    MissingHeader,
    /// The header's schema version is not the one this reader speaks.
    SchemaMismatch {
        /// The version found in the header.
        found: u64,
    },
    /// A line did not parse as a known event.
    BadLine {
        /// 1-based line number in the journal (the header is line 1).
        line_no: usize,
        /// The offending text (truncated for display).
        text: String,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "journal I/O error: {e}"),
            ReadError::MissingHeader => {
                write!(f, "journal has no {{\"schema\":...}} header line")
            }
            ReadError::SchemaMismatch { found } => write!(
                f,
                "journal schema {found} unsupported (reader speaks {JOURNAL_SCHEMA})"
            ),
            ReadError::BadLine { line_no, text } => {
                write!(f, "unparseable journal line {line_no}: {text}")
            }
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Streams `(SimTime, TraceEvent)` pairs out of a JSONL journal.
///
/// # Example
///
/// ```
/// use std::io::BufReader;
/// use mp2p_trace::reader::JournalReader;
///
/// let journal = "{\"schema\":4,\"kinds\":38,\"warmup_ms\":0}\n\
///                {\"t\":1500,\"ev\":\"node_down\",\"node\":3}\n";
/// let mut reader = JournalReader::new(BufReader::new(journal.as_bytes())).unwrap();
/// assert_eq!(reader.header().warmup_ms, 0);
/// let (at, event) = reader.next().unwrap().unwrap();
/// assert_eq!(at.as_millis(), 1500);
/// assert_eq!(event.kind().label(), "node_down");
/// ```
#[derive(Debug)]
pub struct JournalReader<R: BufRead> {
    input: R,
    header: JournalHeader,
    buf: Vec<u8>,
    line_no: usize,
}

impl<R: BufRead> JournalReader<R> {
    /// Opens a journal, consuming and validating its header line.
    ///
    /// Lines are read as raw bytes and validated as UTF-8 here rather
    /// than through `read_line`, so a corrupt journal (truncated write,
    /// binary garbage) yields a line-accurate [`ReadError::BadLine`]
    /// instead of an anonymous I/O error.
    pub fn new(mut input: R) -> Result<Self, ReadError> {
        let mut buf = Vec::with_capacity(256);
        if input.read_until(b'\n', &mut buf)? == 0 {
            return Err(ReadError::MissingHeader);
        }
        // A non-UTF-8 first line cannot be the header object.
        let text = std::str::from_utf8(&buf).map_err(|_| ReadError::MissingHeader)?;
        let header = parse_header(text.trim_end()).ok_or(ReadError::MissingHeader)?;
        if header.schema != JOURNAL_SCHEMA {
            return Err(ReadError::SchemaMismatch {
                found: header.schema,
            });
        }
        Ok(JournalReader {
            input,
            header,
            buf,
            line_no: 1,
        })
    }

    /// The validated header.
    pub fn header(&self) -> JournalHeader {
        self.header
    }

    /// Lines consumed so far (header included).
    pub fn lines_read(&self) -> usize {
        self.line_no
    }
}

impl<R: BufRead> Iterator for JournalReader<R> {
    type Item = Result<(SimTime, TraceEvent), ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            match self.input.read_until(b'\n', &mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(ReadError::Io(e))),
            }
            self.line_no += 1;
            // Invalid UTF-8 is a corrupt line, not an I/O failure: report
            // it with its line number like any other unparseable line.
            let Ok(text) = std::str::from_utf8(&self.buf) else {
                let text = String::from_utf8_lossy(&self.buf);
                return Some(Err(ReadError::BadLine {
                    line_no: self.line_no,
                    text: text.trim_end().chars().take(160).collect(),
                }));
            };
            let text = text.trim_end();
            if text.is_empty() {
                continue; // tolerate a trailing blank line
            }
            return Some(parse_event(text).ok_or_else(|| ReadError::BadLine {
                line_no: self.line_no,
                text: text.chars().take(160).collect(),
            }));
        }
    }
}

/// Parses the header line, accepting any object with a numeric `schema`.
fn parse_header(line: &str) -> Option<JournalHeader> {
    let v = json::parse(line)?;
    let schema = v.get("schema")?.as_u64()?;
    Some(JournalHeader {
        schema,
        kinds: v.get("kinds").and_then(Value::as_u64).unwrap_or(0),
        warmup_ms: v.get("warmup_ms").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// Parses one event line back into the pair `write_json` flattened.
/// Returns `None` on any structural or vocabulary mismatch.
pub fn parse_event(line: &str) -> Option<(SimTime, TraceEvent)> {
    let v = json::parse(line)?;
    let at = SimTime::from_millis(v.get("t")?.as_u64()?);
    let kind = EventKind::from_label(v.get("ev")?.as_str()?)?;

    let num = |key: &str| v.get(key).and_then(Value::as_u64);
    let node_field = |key: &str| num(key).map(|n| NodeId::new(n as u32));
    let item_field = |key: &str| num(key).map(|n| ItemId::new(n as u32));
    let class_field = || {
        v.get("class")
            .and_then(Value::as_str)
            .and_then(MessageClass::from_label)
    };
    let level_field = || {
        v.get("level")
            .and_then(Value::as_str)
            .and_then(LevelTag::from_label)
    };
    let span_field = || match v.get("span") {
        Some(s) => s.as_u64().map(Some), // present but non-numeric = bad
        None => Some(None),
    };

    let event = match kind {
        EventKind::MsgSend => TraceEvent::MsgSend {
            node: node_field("node")?,
            class: class_field()?,
            bytes: num("bytes")? as u32,
            dest: match v.get("dest")? {
                Value::Null => None,
                d => Some(NodeId::new(d.as_u64()? as u32)),
            },
            span: span_field()?,
        },
        EventKind::MsgDeliver => TraceEvent::MsgDeliver {
            node: node_field("node")?,
            origin: node_field("origin")?,
            class: class_field()?,
            hops: num("hops")? as u8,
            via_flood: v.get("flood")?.as_bool()?,
            span: span_field()?,
        },
        EventKind::MacDrop => TraceEvent::MacDrop {
            node: node_field("node")?,
            next_hop: node_field("next_hop")?,
            class: class_field()?,
        },
        EventKind::Undeliverable => TraceEvent::Undeliverable {
            node: node_field("node")?,
            dest: node_field("dest")?,
            class: class_field()?,
        },
        EventKind::FloodDupDrop => TraceEvent::FloodDupDrop {
            node: node_field("node")?,
            origin: node_field("origin")?,
        },
        EventKind::FloodTtlExhausted => TraceEvent::FloodTtlExhausted {
            node: node_field("node")?,
            origin: node_field("origin")?,
        },
        EventKind::RreqDupDrop => TraceEvent::RreqDupDrop {
            node: node_field("node")?,
            origin: node_field("origin")?,
        },
        EventKind::HopBudgetDrop => TraceEvent::HopBudgetDrop {
            node: node_field("node")?,
            origin: node_field("origin")?,
            dest: node_field("dest")?,
        },
        EventKind::NoRouteDrop => TraceEvent::NoRouteDrop {
            node: node_field("node")?,
            origin: node_field("origin")?,
            dest: node_field("dest")?,
        },
        EventKind::DiscoveryStart => TraceEvent::DiscoveryStart {
            node: node_field("node")?,
            dest: node_field("dest")?,
            attempt: num("attempt")? as u8,
        },
        EventKind::DiscoveryFailed => TraceEvent::DiscoveryFailed {
            node: node_field("node")?,
            dest: node_field("dest")?,
            dropped: num("dropped")? as u32,
        },
        EventKind::RelayTransition => TraceEvent::RelayTransition {
            node: node_field("node")?,
            item: item_field("item")?,
            kind: RelayTransitionKind::from_label(v.get("kind")?.as_str()?)?,
        },
        EventKind::QueryIssued => TraceEvent::QueryIssued {
            node: node_field("node")?,
            query: num("query")?,
            item: item_field("item")?,
            level: level_field()?,
        },
        EventKind::QueryPhase => TraceEvent::QueryPhase {
            node: node_field("node")?,
            query: num("query")?,
            item: item_field("item")?,
            phase: SpanPhase::from_label(v.get("phase")?.as_str()?)?,
            attempt: num("attempt")? as u8,
        },
        EventKind::QueryServed => TraceEvent::QueryServed {
            node: node_field("node")?,
            query: num("query")?,
            level: level_field()?,
            served_by: ServedBy::from_label(v.get("by")?.as_str()?)?,
            issued: SimTime::from_millis(num("issued")?),
        },
        EventKind::QueryFailed => TraceEvent::QueryFailed {
            node: node_field("node")?,
            query: num("query")?,
            level: level_field()?,
        },
        EventKind::NodeUp => TraceEvent::NodeUp {
            node: node_field("node")?,
        },
        EventKind::NodeDown => TraceEvent::NodeDown {
            node: node_field("node")?,
        },
        EventKind::SourceUpdate => TraceEvent::SourceUpdate {
            node: node_field("node")?,
            item: item_field("item")?,
            version: num("version")?,
        },
        EventKind::NodeCrash => TraceEvent::NodeCrash {
            node: node_field("node")?,
        },
        EventKind::NodeRecover => TraceEvent::NodeRecover {
            node: node_field("node")?,
        },
        EventKind::PartitionStart => TraceEvent::PartitionStart {
            axis: num("axis")? as u8,
        },
        EventKind::PartitionHeal => TraceEvent::PartitionHeal {
            axis: num("axis")? as u8,
        },
        EventKind::FrameDup => TraceEvent::FrameDup {
            node: node_field("node")?,
            class: class_field()?,
        },
        EventKind::BurstDrop => TraceEvent::BurstDrop {
            node: node_field("node")?,
        },
        EventKind::RelayLeaseExpired => TraceEvent::RelayLeaseExpired {
            node: node_field("node")?,
            item: item_field("item")?,
        },
        EventKind::FallbackFlood => TraceEvent::FallbackFlood {
            node: node_field("node")?,
            query: num("query")?,
            item: item_field("item")?,
        },
        EventKind::ConsistencySample => {
            let Value::Arr(raw) = v.get("ages")? else {
                return None;
            };
            if raw.len() != mp2p_metrics::AGE_BUCKETS {
                return None;
            }
            let mut ages = [0u32; mp2p_metrics::AGE_BUCKETS];
            for (slot, value) in ages.iter_mut().zip(raw) {
                *slot = value.as_u64()? as u32;
            }
            TraceEvent::ConsistencySample {
                fresh_copies: num("fresh")? as u32,
                total_copies: num("copies")? as u32,
                items_replicated: num("items")? as u32,
                max_replicas: num("max_replicas")? as u32,
                partitions: num("partitions")? as u32,
                relay_nodes: num("relay_nodes")? as u32,
                ages,
            }
        }
        EventKind::StaleServe => TraceEvent::StaleServe {
            node: node_field("node")?,
            query: num("query")?,
            item: item_field("item")?,
            cause: BlameCause::from_label(v.get("cause")?.as_str()?)?,
            staleness_ms: num("staleness_ms")?,
            lag: num("lag")?,
            violation: v.get("violation")?.as_bool()?,
        },
        EventKind::ResyncStart => TraceEvent::ResyncStart {
            node: node_field("node")?,
            items: num("items")? as u32,
        },
        EventKind::ResyncDone => TraceEvent::ResyncDone {
            node: node_field("node")?,
            stale: num("stale")? as u32,
        },
        EventKind::RecoveryRetransmit => TraceEvent::RecoveryRetransmit {
            node: node_field("node")?,
            dest: node_field("dest")?,
            item: item_field("item")?,
            seq: num("seq")?,
            attempt: num("attempt")? as u8,
        },
        EventKind::RecoveryAck => TraceEvent::RecoveryAck {
            node: node_field("node")?,
            peer: node_field("peer")?,
            item: item_field("item")?,
            seq: num("seq")?,
        },
        EventKind::RelayHandover => TraceEvent::RelayHandover {
            from: node_field("from")?,
            to: node_field("to")?,
            item: item_field("item")?,
        },
        EventKind::FrameBorn => {
            // `item`/`version` are written only for propagation frames.
            let item = match v.get("item") {
                Some(i) => Some(ItemId::new(i.as_u64()? as u32)),
                None => None,
            };
            TraceEvent::FrameBorn {
                node: node_field("node")?,
                frame: num("frame")?,
                class: class_field()?,
                dest: match v.get("dest")? {
                    Value::Null => None,
                    d => Some(NodeId::new(d.as_u64()? as u32)),
                },
                version: if item.is_some() { num("version")? } else { 0 },
                item,
            }
        }
        EventKind::FrameHop => TraceEvent::FrameHop {
            node: node_field("node")?,
            origin: node_field("origin")?,
            frame: num("frame")?,
            hops: num("hops")? as u8,
        },
        EventKind::FrameFate => TraceEvent::FrameFate {
            node: node_field("node")?,
            origin: node_field("origin")?,
            frame: num("frame")?,
            fate: FrameFateKind::from_label(v.get("fate")?.as_str()?)?,
        },
        EventKind::CopyLineage => TraceEvent::CopyLineage {
            node: node_field("node")?,
            item: item_field("item")?,
            version: num("version")?,
            origin: node_field("origin")?,
            frame: num("frame")?,
            hops: num("hops")? as u8,
        },
    };
    Some((at, event))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{JsonlSink, TraceSink};
    use mp2p_sim::SimDuration;
    use std::io::BufReader;

    #[test]
    fn serialise_then_parse_is_identity_on_every_variant() {
        for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
            let at = SimTime::from_millis(17 * i as u64);
            let mut line = String::new();
            event.write_json(at, &mut line);
            let (back_at, back) = parse_event(&line).unwrap_or_else(|| {
                panic!("{:?} did not parse back: {line}", event.kind());
            });
            assert_eq!(back_at, at, "{line}");
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn reader_streams_a_sink_written_journal() {
        // The boxed writer swallows an in-memory buffer, so go through a
        // temp file and read the bytes back.
        let path = std::env::temp_dir().join(format!(
            "mp2p-trace-reader-test-{}.jsonl",
            std::process::id()
        ));
        {
            let mut sink =
                JsonlSink::create_v4_with_warmup(&path, SimDuration::from_secs(60)).unwrap();
            for (i, event) in crate::event::tests::samples().into_iter().enumerate() {
                sink.record(SimTime::from_millis(i as u64 * 10), &event);
            }
            sink.flush();
            assert!(sink.io_error().is_none());
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let mut reader = JournalReader::new(BufReader::new(bytes.as_slice())).unwrap();
        assert_eq!(reader.header().schema, JOURNAL_SCHEMA);
        assert_eq!(reader.header().warmup_ms, 60_000);
        let events: Vec<_> = reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(events.len(), crate::event::tests::samples().len());
        for ((at, event), (i, expected)) in events
            .iter()
            .zip(crate::event::tests::samples().into_iter().enumerate())
        {
            assert_eq!(at.as_millis(), i as u64 * 10);
            assert_eq!(event, &expected);
        }
        assert_eq!(reader.lines_read(), events.len() + 1);
    }

    #[test]
    fn missing_or_wrong_header_is_rejected() {
        let empty = JournalReader::new(BufReader::new(&b""[..]));
        assert!(matches!(empty, Err(ReadError::MissingHeader)));

        let no_header = "{\"t\":0,\"ev\":\"node_up\",\"node\":0}\n";
        let r = JournalReader::new(BufReader::new(no_header.as_bytes()));
        assert!(matches!(r, Err(ReadError::MissingHeader)));

        let future = "{\"schema\":99}\n";
        let r = JournalReader::new(BufReader::new(future.as_bytes()));
        assert!(matches!(r, Err(ReadError::SchemaMismatch { found: 99 })));

        let zero = "{\"schema\":0}\n";
        let r = JournalReader::new(BufReader::new(zero.as_bytes()));
        assert!(matches!(r, Err(ReadError::SchemaMismatch { found: 0 })));

        let older = "{\"schema\":3,\"kinds\":34,\"warmup_ms\":0}\n";
        let r = JournalReader::new(BufReader::new(older.as_bytes()));
        assert!(matches!(r, Err(ReadError::SchemaMismatch { found: 3 })));
    }

    #[test]
    fn bad_lines_carry_their_line_number() {
        let journal = "{\"schema\":4}\n{\"t\":0,\"ev\":\"node_up\",\"node\":0}\nnot json\n";
        let mut reader = JournalReader::new(BufReader::new(journal.as_bytes())).unwrap();
        assert!(reader.next().unwrap().is_ok());
        match reader.next().unwrap() {
            Err(ReadError::BadLine { line_no, text }) => {
                assert_eq!(line_no, 3);
                assert_eq!(text, "not json");
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn unknown_event_labels_are_bad_lines() {
        assert!(parse_event("{\"t\":0,\"ev\":\"martian\",\"node\":0}").is_none());
        // A span tag that is present but non-numeric must not silently
        // become None.
        assert!(parse_event(
            "{\"t\":0,\"ev\":\"msg_send\",\"node\":0,\"class\":\"POLL\",\"bytes\":4,\"dest\":null,\"span\":\"x\"}"
        )
        .is_none());
    }
}
