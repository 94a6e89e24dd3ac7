//! Small helpers shared by the measured runs: digests, the discarding
//! journal writer, the minimum of samples, memory high-water and spans.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Eight interleaved FNV-1a lanes: the byte at stream offset `k` feeds
/// lane `k % 8`. The digest depends only on the byte stream, not on how
/// the writer above chunks it, and the independent lanes hash a journal
/// of hundreds of megabytes several times faster than one FNV chain.
#[derive(Debug, Clone)]
pub struct LaneFnv {
    lanes: [u64; 8],
    len: u64,
}

impl Default for LaneFnv {
    fn default() -> Self {
        LaneFnv {
            lanes: [FNV_OFFSET; 8],
            len: 0,
        }
    }
}

impl LaneFnv {
    pub fn update(&mut self, mut buf: &[u8]) {
        while !self.len.is_multiple_of(8) && !buf.is_empty() {
            self.byte(buf[0]);
            buf = &buf[1..];
        }
        let mut chunks = buf.chunks_exact(8);
        for chunk in &mut chunks {
            for (lane, &b) in self.lanes.iter_mut().zip(chunk) {
                *lane = (*lane ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        self.len += (buf.len() - chunks.remainder().len()) as u64;
        for &b in chunks.remainder() {
            self.byte(b);
        }
    }

    fn byte(&mut self, b: u8) {
        let lane = &mut self.lanes[(self.len % 8) as usize];
        *lane = (*lane ^ b as u64).wrapping_mul(FNV_PRIME);
        self.len += 1;
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET ^ self.len;
        for lane in self.lanes {
            h = (h ^ lane).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// A journal writer that keeps nothing: it counts and hashes the bytes
/// the flight recorder hands it, then drops them, so the recorded
/// workload measures serialisation without disk I/O. Clones share state,
/// so the caller keeps one handle while the sink owns the other.
#[derive(Debug, Clone, Default)]
pub struct DiscardWriter(Rc<RefCell<LaneFnv>>);

impl DiscardWriter {
    /// `(bytes, digest)` of everything written so far.
    pub fn summary(&self) -> (u64, u64) {
        let h = self.0.borrow();
        (h.len(), h.digest())
    }
}

impl Write for DiscardWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Smallest of `xs`; 0 when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of `xs` (the mean of the middle two for an even count); 0
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or
/// `None` where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// One timed interval around a call into a layer, kept in memory and
/// written out when the benchmark ends.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call: spans with one name are summed in the summary.
    pub name: &'static str,
    /// What the call ran on (a cell label, or empty).
    pub detail: String,
    pub start_ns: u128,
    pub end_ns: u128,
    pub parent: Option<usize>,
    /// Calls into the layer the span covers (1 for a single call).
    pub calls: u64,
}

/// In-memory span recorder with an explicit stack for parent links.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, detail: impl Into<String>) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            detail: detail.into(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
            calls: 1,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span, recording how many layer calls
    /// it covered.
    pub fn exit(&mut self, calls: u64) {
        let idx = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[idx];
        span.end_ns = self.origin.elapsed().as_nanos();
        span.calls = calls;
    }

    /// Self time of span `i`: its duration minus its children's.
    fn self_ns(&self, i: usize) -> u128 {
        let own = self.spans[i].end_ns - self.spans[i].start_ns;
        let children: u128 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        own.saturating_sub(children)
    }

    /// One JSON object per span, self time included.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"calls\":{}}}\n",
                s.name,
                s.detail,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                s.calls
            ));
        }
        out
    }
}

impl Spans {
    /// One row per span name: spans, layer calls, total and self time.
    pub fn summary(&self) -> Vec<String> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let (mut n, mut calls, mut total, mut own) = (0, 0, 0u128, 0u128);
                for (i, s) in self
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.name == name)
                {
                    n += 1;
                    calls += s.calls;
                    total += s.end_ns - s.start_ns;
                    own += self.self_ns(i);
                }
                format!(
                    "  span {name:<40} x{n:<4} calls {calls:>10}  total {:.4} s  self {:.4} s",
                    total as f64 / 1e9,
                    own as f64 / 1e9
                )
            })
            .collect()
    }

    /// Writes the spans to `.bench_spans/<workload>.jsonl` under the
    /// working directory; a failure is reported, not fatal.
    pub fn write(&self, workload: &str) {
        let dir = std::path::Path::new(".bench_spans");
        let path = dir.join(format!("{workload}.jsonl"));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, self.to_jsonl()));
        match written {
            Ok(()) => println!("  spans -> {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
}
