//! The harness-side span recorder.
//!
//! Every call from the pipeline into a product layer is bracketed by
//! [`Recorder::open`] / [`Recorder::close`]. `close` always returns the wall
//! time of the bracket, so the untraced and the traced run execute the same
//! code; the traced run additionally keeps the span (name, start, end,
//! parent) in memory and writes all of them out when the run ends. Spans
//! inside the product are a later change (ROADMAP item 4).

use std::time::{Duration, Instant};

use crate::json;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one was opened.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A bracket that has been opened and not yet closed.
pub struct OpenSpan {
    start: Instant,
    index: Option<usize>,
}

pub struct Recorder {
    /// Whether spans are kept. Toggled during the traced serve phase, where
    /// traced and untraced passes alternate to measure the recorder's cost.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn open(&mut self, name: &'static str) -> OpenSpan {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        OpenSpan { start, index }
    }

    /// Closes the bracket and returns its wall time. Brackets must be closed
    /// innermost first.
    pub fn close(&mut self, open: OpenSpan) -> Duration {
        let elapsed = open.start.elapsed();
        if let Some(index) = open.index {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = self.spans[index].start_ns + elapsed.as_nanos() as u64;
        }
        elapsed
    }

    /// Times `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.open(name);
        let value = f();
        (value, self.close(open))
    }

    /// The whole recording as one JSON document.
    pub fn to_json(&self, run_id: &str, workload: &str, seed: u64) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = format!(
            "{{\"run_id\": {}, \"workload\": {}, \"seed\": {}, \"spans\": [\n",
            json::string(run_id),
            json::string(workload),
            seed
        );
        for (i, (span, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {self_ns}}}{}\n",
                json::string(span.name),
                span.start_ns,
                span.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part its child spans
/// cover. Children of one span never overlap (one thread, strict nesting), so
/// the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] = selfs[parent].saturating_sub(span.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("run", 0, 1000, None),
            span("build", 100, 700, Some(0)),
            span("scan", 150, 350, Some(1)),
            span("scan", 400, 500, Some(1)),
            span("open", 800, 900, Some(0)),
        ];
        // run: 1000 - (600 + 100); build: 600 - (200 + 100); leaves keep all.
        assert_eq!(self_times_ns(&spans), vec![300, 300, 200, 100, 100]);
    }

    #[test]
    fn recorder_nests_and_reports_parents() {
        let mut rec = Recorder::new(true);
        let outer = rec.open("outer");
        let (value, inner) = rec.time("inner", || 7);
        assert_eq!(value, 7);
        let outer = rec.close(outer);
        assert!(outer >= inner);
        let spans = &rec.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = crate::json::parse(&rec.to_json("id-1", "w", 3)).unwrap();
        assert_eq!(doc.get("spans").and_then(crate::json::Value::as_array).unwrap().len(), 2);
    }

    #[test]
    fn disabled_recorder_times_without_keeping_spans() {
        let mut rec = Recorder::new(false);
        let (_, elapsed) = rec.time("x", || std::hint::black_box(1 + 1));
        assert!(elapsed.as_nanos() > 0 || elapsed.is_zero());
        assert!(rec.spans.is_empty());
    }
}
