//! In-memory spans recorded around calls into each layer, written at exit
//! as Chrome `trace_event` JSON, plus the self-time rollup the per-layer
//! metrics are derived from.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One bracketed call: which layer, when, under which span, and for
/// which (app, paradigm) point.
#[derive(Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `gpu_model.replay`.
    pub name: &'static str,
    /// Free-form detail shown in the trace viewer (app, paradigm, GPU).
    pub detail: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; `None` while open.
    pub end_ns: Option<u64>,
    /// The span this call was made under.
    pub parent: Option<SpanId>,
    /// Shared by every span of one (app, paradigm) point; `None` for
    /// spans that serve every point of an app (its preparation).
    pub point: Option<u32>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.expect("span closed") - self.start_ns
    }
}

/// Records spans in memory; nothing is written until [`Recorder::chrome_json`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        detail: String,
        parent: Option<SpanId>,
        point: Option<u32>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            detail,
            start_ns,
            end_ns: None,
            parent,
            point,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        assert!(span.end_ns.is_none(), "span {} closed twice", span.name);
        span.end_ns = Some(end);
        span.duration_ns() as f64 * 1e-9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome `trace_event` JSON (complete `X` events on one
    /// track; nesting shows through the time ranges, and each event's
    /// `args` carry its id, parent, and point id).
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{},\"point\":{},\"detail\":\"{}\"}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                json_opt(span.parent),
                json_opt(span.point),
                span.detail,
            );
        }
        s.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        s
    }
}

fn json_opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Self time per span name over `spans[first..]`, in seconds: each
/// span's duration minus the part of it its children cover. Children of
/// one span never overlap (the benchmark is single-threaded), so their
/// durations simply add. Spans from `first` on must have their parents
/// from `first` on too, as one pass's spans do.
pub fn self_times(spans: &[Span], first: SpanId) -> BTreeMap<&'static str, f64> {
    let spans = &spans[first..];
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p - first] += span.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        *out.entry(span.name).or_insert(0.0) += (span.duration_ns() - children) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            detail: String::new(),
            start_ns,
            end_ns: Some(end_ns),
            parent,
            point: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("earlier pass", 0, 50, None),
            span("app", 0, 1_000, None),
            span("gpu_model.replay", 100, 400, Some(1)),
            span("gpu_model.replay", 500, 700, Some(1)),
            span("system.run", 700, 900, Some(1)),
        ];
        let t = self_times(&spans, 1);
        assert!(!t.contains_key("earlier pass"));
        assert!((t["app"] - 300e-9).abs() < 1e-15);
        assert!((t["gpu_model.replay"] - 500e-9).abs() < 1e-15);
        assert!((t["system.run"] - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn chrome_json_carries_parent_and_point() {
        let mut rec = Recorder::new();
        let root = rec.open("pass", String::new(), None, None);
        let leaf = rec.open("system.run", "jacobi finepack".into(), Some(root), Some(3));
        rec.close(leaf);
        rec.close(root);
        let json = rec.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"system.run\",\"cat\":\"system\""));
        assert!(json.contains("\"id\":1,\"parent\":0,\"point\":3"));
        assert!(json.contains("\"id\":0,\"parent\":null,\"point\":null"));
    }
}
