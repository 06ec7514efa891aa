//! Spans recorded by the benchmark's own code around its calls into each
//! crate: name, start, end, parent and request id, kept in memory and
//! written out when the run ends.
//!
//! A span's layer is its name up to the first `.` (`dist.verify.grid` →
//! `dist`). A layer's self time is the duration of its spans minus the
//! part their direct children cover. With tracing off every call is one
//! branch and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what[.detail]`.
    pub name: String,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    /// Nanoseconds since the run's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The request (or pass) the span belongs to.
    pub req: u64,
}

/// A handle to an open span; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The id of "no span": the parent of roots, and what a disabled log
    /// hands out.
    pub const NONE: SpanId = SpanId(usize::MAX);

    fn index(self) -> Option<usize> {
        (self != SpanId::NONE).then_some(self.0)
    }
}

/// A per-thread span log. Logs of worker threads are merged into the
/// main log with [`SpanLog::absorb`] when the threads end.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log measuring from `epoch`; records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        SpanLog {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty log sharing this log's switch and epoch, for another
    /// thread.
    pub fn fork(&self) -> Self {
        SpanLog::new(self.on, self.epoch)
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start = self.nanos(Instant::now());
        self.push(name, parent, req, start, start)
    }

    /// Closes a span opened with [`SpanLog::open`] at the current time.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.index() {
            self.spans[i].end = self.nanos(Instant::now());
        }
    }

    /// Records a finished interval whose bounds were measured elsewhere
    /// (for example a server-side service time inside a client
    /// round trip).
    pub fn record(&mut self, name: &str, parent: SpanId, req: u64, start: u64, end: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        self.push(name, parent, req, start, end)
    }

    fn push(&mut self, name: &str, parent: SpanId, req: u64, start: u64, end: u64) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent: parent.index(),
            req,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Moves every span of `other` into this log, keeping parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in nanoseconds, over every recorded span.
    pub fn self_nanos_by_layer(&self) -> BTreeMap<String, u64> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_cover) {
            let layer = s.name.split('.').next().unwrap_or("").to_string();
            let own = s.end.saturating_sub(s.start).saturating_sub(covered);
            *by_layer.entry(layer).or_insert(0) += own;
        }
        by_layer
    }

    /// Total duration of the root spans (those without a parent).
    pub fn root_nanos(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end.saturating_sub(s.start))
            .sum()
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut log = SpanLog::new(true, Instant::now());
        let root = log.record("server.request", SpanId::NONE, 1, 0, 100);
        log.record("api.serve", root, 1, 10, 70);
        let by_layer = log.self_nanos_by_layer();
        assert_eq!(by_layer["server"], 40);
        assert_eq!(by_layer["api"], 60);
        assert_eq!(log.root_nanos(), 100);
    }

    #[test]
    fn off_records_nothing_and_absorb_keeps_links() {
        let mut off = SpanLog::new(false, Instant::now());
        assert_eq!(off.open("core.x", SpanId::NONE, 0), SpanId::NONE);
        assert!(off.spans().is_empty());
        let mut main = SpanLog::new(true, Instant::now());
        main.record("bench.a", SpanId::NONE, 0, 0, 5);
        let mut worker = main.fork();
        let p = worker.record("api.b", SpanId::NONE, 1, 0, 9);
        worker.record("core.c", p, 1, 1, 4);
        main.absorb(worker);
        assert_eq!(main.spans()[2].parent, Some(1));
    }
}
