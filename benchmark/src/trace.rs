//! Harness-side spans: one record around every call into a layer's public
//! function, kept in memory and written as a Chrome trace when the run
//! ends. Spans are recorded from the benchmark's own files only; spans
//! inside the program are a later change.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open on this thread when this one began.
    pub parent: Option<usize>,
    /// Which repeat of the workload the span belongs to.
    pub repeat: u32,
    /// 0 is the ingest driver; query connections count from 1.
    pub tid: u32,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct Open(usize);

const OFF: usize = usize::MAX;

/// The span store. Disabled (the untraced runs), `begin`/`end` read no
/// clock and store nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pub repeat: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            repeat: 0,
        }
    }

    fn now_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span on the driver thread, nested under the innermost open
    /// one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(OFF);
        }
        let start_ns = self.now_ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            repeat: self.repeat,
            tid: 0,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if open.0 == OFF {
            return;
        }
        let end_ns = self.now_ns(Instant::now());
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
        self.spans[open.0].end_ns = end_ns;
    }

    /// Records a span measured on another thread (a query connection).
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, tid: u32) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.now_ns(start), self.now_ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            repeat: self.repeat,
            tid,
        });
    }

    /// Total seconds spent in spans called `name` during `repeat`.
    pub fn total_s(&self, name: &str, repeat: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.repeat == repeat)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): complete
    /// events with microsecond timestamps; `args` carries the span's own
    /// index, its parent's and the repeat id.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"repeat\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.repeat
            )
            .expect("write to a String");
        }
        out.push_str("]}");
        out
    }

    /// Writes [`Self::chrome_json`] to `path` (nothing when disabled).
    pub fn write(&self, path: &Path) {
        if self.on {
            std::fs::write(path, self.chrome_json()).expect("write trace file");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_repeat() {
        let mut tr = Tracer::new(true);
        tr.repeat = 1;
        let outer = tr.begin("dsms.push_batch");
        let inner = tr.begin("core.flush");
        tr.end(inner);
        tr.end(outer);
        tr.repeat = 2;
        let again = tr.begin("dsms.push_batch");
        tr.end(again);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[0].parent, None);
        assert!(
            tr.total_s("dsms.push_batch", 2) > 0.0 || tr.spans[2].end_ns >= tr.spans[2].start_ns
        );
        assert!(tr.total_s("dsms.push_batch", 1) >= tr.total_s("core.flush", 1));
        let json = tr.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"dsms.push_batch\""));
        assert!(json.contains("\"parent\":0") && json.contains("\"repeat\":2"));
    }

    #[test]
    fn a_disabled_tracer_stores_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("x");
        tr.end(s);
        tr.add("y", Instant::now(), Instant::now(), 1);
        assert!(tr.spans.is_empty());
    }
}
