//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`layer.call`), a start and an end on the run's
//! monotonic clock, and the span that was open when it started (its
//! parent). Every span of one run carries the run's trace id. Spans stay
//! in memory and are written out once, when the run ends.
//!
//! Per-edge calls (`insert_edge`, `submit`, …) are not given a span
//! each: hundreds of thousands of them per round would make the trace
//! larger than the state it describes. They are aggregated into the
//! span of the loop that makes them, whose `calls` field counts them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub calls: u64,
}

/// Records spans when on; every method is a no-op when off, so the
/// untraced run pays nothing.
pub struct Tracer {
    on: bool,
    trace_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool, trace_id: u64) -> Tracer {
        Tracer {
            on,
            trace_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            calls: 1,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span that stands for `calls` calls of the same function.
    pub fn exit_calls(&mut self, span: SpanId, calls: u64) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.calls = calls;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    pub fn exit(&mut self, span: SpanId) {
        self.exit_calls(span, 1);
    }

    /// Per span name: `(spans, calls, total ns, self ns)`, where self
    /// time is the span's duration minus the part its children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.calls;
            e.2 += dur;
            e.3 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{i},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                self.trace_id, s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}
