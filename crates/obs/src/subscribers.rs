//! The bundled [`Subscriber`](crate::Subscriber) implementations: in-memory
//! metrics aggregation, a JSONL event stream and a Chrome `about:tracing`
//! exporter.  All three are internally locked and safe to share across the
//! exploring threads; none of them allocates unless records actually arrive.

use crate::{json_escape, Subscriber, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// Number of power-of-two histogram buckets (covers the full `u64` range).
const BUCKETS: usize = 64;

#[derive(Clone)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        // Bucket i collects values whose highest set bit is i (value 0 goes
        // into bucket 0), i.e. power-of-two latency/size classes.
        let bucket = (63 - value.max(1).leading_zeros()) as usize;
        self.buckets[bucket] += 1;
    }
}

#[derive(Clone, Default)]
struct SpanStat {
    count: u64,
    total_nanos: u64,
    max_nanos: u64,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
    events: BTreeMap<String, u64>,
}

/// In-memory metrics aggregation: counter totals, histogram buckets and
/// per-span call counts / cumulative / max nanoseconds, keyed by record name
/// (spans with a detail label aggregate under `"name:detail"` *and* under the
/// plain `"name"`).  Snapshot with [`MetricsRegistry::snapshot`].
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.  Wrap in an `Arc` and pass to
    /// [`install`](crate::install).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A point-in-time copy of the aggregated metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry lock");
        MetricsSnapshot {
            counters: inner.counters.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        HistogramSnapshot {
                            count: h.count,
                            sum: h.sum,
                            min: if h.count == 0 { 0 } else { h.min },
                            max: h.max,
                        },
                    )
                })
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(name, s)| {
                    (
                        name.clone(),
                        SpanSnapshot {
                            count: s.count,
                            total_nanos: s.total_nanos,
                            max_nanos: s.max_nanos,
                        },
                    )
                })
                .collect(),
            events: inner.events.clone(),
        }
    }
}

impl Subscriber for MetricsRegistry {
    fn on_span_end(
        &self,
        _id: u64,
        name: &'static str,
        detail: Option<&str>,
        _ts_nanos: u64,
        dur_nanos: u64,
        _tid: u64,
    ) {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        let plain = inner.spans.entry(name.to_string()).or_default();
        plain.count += 1;
        plain.total_nanos = plain.total_nanos.saturating_add(dur_nanos);
        plain.max_nanos = plain.max_nanos.max(dur_nanos);
        if let Some(detail) = detail {
            let keyed = inner.spans.entry(format!("{name}:{detail}")).or_default();
            keyed.count += 1;
            keyed.total_nanos = keyed.total_nanos.saturating_add(dur_nanos);
            keyed.max_nanos = keyed.max_nanos.max(dur_nanos);
        }
    }

    fn on_counter(&self, name: &'static str, delta: u64, _ts_nanos: u64, _tid: u64) {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    fn on_histogram(&self, name: &'static str, value: u64, _ts_nanos: u64, _tid: u64) {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(Histogram::new)
            .record(value);
    }

    fn on_event(&self, name: &'static str, _fields: &[(&'static str, Value)], _ts: u64, _tid: u64) {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        *inner.events.entry(name.to_string()).or_insert(0) += 1;
    }
}

/// Aggregated statistics of one histogram in a [`MetricsSnapshot`].
#[derive(Clone, Copy, Debug, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (`0` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

/// Aggregated statistics of one span name in a [`MetricsSnapshot`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Cumulative duration in nanoseconds (saturating).
    pub total_nanos: u64,
    /// Longest single span in nanoseconds.
    pub max_nanos: u64,
}

/// A point-in-time copy of a [`MetricsRegistry`], with accessors and a
/// hand-rolled JSON rendering (the offline build has no serde).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span summaries by name (and `"name:detail"` for labelled spans).
    pub spans: BTreeMap<String, SpanSnapshot>,
    /// Event counts by name.
    pub events: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// The total of the named counter (`0` when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Completed-span count of the named span (`0` when absent).
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.get(name).map(|s| s.count).unwrap_or(0)
    }

    /// Cumulative nanoseconds of the named span (`0` when absent).
    pub fn span_total_nanos(&self, name: &str) -> u64 {
        self.spans.get(name).map(|s| s.total_nanos).unwrap_or(0)
    }

    /// Occurrence count of the named event (`0` when absent).
    pub fn event_count(&self, name: &str) -> u64 {
        self.events.get(name).copied().unwrap_or(0)
    }

    /// `true` iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.events.is_empty()
    }

    /// Renders the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        render_u64_map(&mut out, &self.counters);
        out.push_str("},\n  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"total_nanos\": {}, \"max_nanos\": {}}}",
                json_escape(name),
                s.count,
                s.total_nanos,
                s.max_nanos
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                json_escape(name),
                h.count,
                h.sum,
                h.min,
                h.max
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"events\": {");
        render_u64_map(&mut out, &self.events);
        out.push_str("}\n}\n");
        out
    }
}

fn render_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    for (i, (name, value)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {}", json_escape(name), value));
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
}

// ---------------------------------------------------------------------------
// JsonlSubscriber
// ---------------------------------------------------------------------------

/// Captures the full instrumentation stream as one JSON object per line —
/// the machine-checkable export format (see
/// [`validate_jsonl`](crate::validate_jsonl)).  Lines from different threads
/// interleave; per-thread order follows program order, so validation is
/// per-`tid`.
#[derive(Default)]
pub struct JsonlSubscriber {
    lines: Mutex<Vec<String>>,
}

impl JsonlSubscriber {
    /// An empty in-memory JSONL capture.
    pub fn new() -> JsonlSubscriber {
        JsonlSubscriber::default()
    }

    fn push(&self, line: String) {
        self.lines.lock().expect("jsonl subscriber lock").push(line);
    }

    /// A copy of the captured lines.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("jsonl subscriber lock").clone()
    }

    /// Number of captured lines.
    pub fn len(&self) -> usize {
        self.lines.lock().expect("jsonl subscriber lock").len()
    }

    /// `true` iff nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The captured stream as one newline-terminated string.
    pub fn contents(&self) -> String {
        let lines = self.lines.lock().expect("jsonl subscriber lock");
        let mut out = String::new();
        for line in lines.iter() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Writes the captured stream to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.contents().as_bytes())
    }
}

fn render_fields(fields: &[(&'static str, Value)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":", json_escape(key)));
        value.render_json(&mut out);
    }
    out.push('}');
    out
}

impl Subscriber for JsonlSubscriber {
    fn on_span_start(
        &self,
        id: u64,
        name: &'static str,
        detail: Option<&str>,
        ts_nanos: u64,
        tid: u64,
    ) {
        let detail = detail
            .map(|d| format!(",\"detail\":\"{}\"", json_escape(d)))
            .unwrap_or_default();
        self.push(format!(
            "{{\"type\":\"span_start\",\"id\":{id},\"name\":\"{}\"{detail},\"ts\":{ts_nanos},\"tid\":{tid}}}",
            json_escape(name)
        ));
    }

    fn on_span_end(
        &self,
        id: u64,
        name: &'static str,
        _detail: Option<&str>,
        ts_nanos: u64,
        dur_nanos: u64,
        tid: u64,
    ) {
        self.push(format!(
            "{{\"type\":\"span_end\",\"id\":{id},\"name\":\"{}\",\"ts\":{ts_nanos},\"dur\":{dur_nanos},\"tid\":{tid}}}",
            json_escape(name)
        ));
    }

    fn on_counter(&self, name: &'static str, delta: u64, ts_nanos: u64, tid: u64) {
        self.push(format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"delta\":{delta},\"ts\":{ts_nanos},\"tid\":{tid}}}",
            json_escape(name)
        ));
    }

    fn on_histogram(&self, name: &'static str, value: u64, ts_nanos: u64, tid: u64) {
        self.push(format!(
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"value\":{value},\"ts\":{ts_nanos},\"tid\":{tid}}}",
            json_escape(name)
        ));
    }

    fn on_event(&self, name: &'static str, fields: &[(&'static str, Value)], ts: u64, tid: u64) {
        self.push(format!(
            "{{\"type\":\"event\",\"name\":\"{}\",\"ts\":{ts},\"tid\":{tid},\"fields\":{}}}",
            json_escape(name),
            render_fields(fields)
        ));
    }
}

// ---------------------------------------------------------------------------
// ChromeTraceSubscriber
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ChromeInner {
    events: Vec<String>,
    counter_totals: BTreeMap<&'static str, u64>,
}

/// Exports the stream in the Chrome `about:tracing` / Perfetto trace-event
/// JSON format: spans become complete (`"ph":"X"`) events on per-thread
/// tracks, counters become `"ph":"C"` running totals and events become
/// instants (`"ph":"i"`) — load the written file in `chrome://tracing` or
/// [ui.perfetto.dev](https://ui.perfetto.dev) for a flamegraph of a parallel
/// exploration.
#[derive(Default)]
pub struct ChromeTraceSubscriber {
    inner: Mutex<ChromeInner>,
}

impl ChromeTraceSubscriber {
    /// An empty trace.
    pub fn new() -> ChromeTraceSubscriber {
        ChromeTraceSubscriber::default()
    }

    /// Renders the captured trace as a Chrome trace-event JSON document.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().expect("chrome trace lock");
        let mut out = String::from("{\"traceEvents\":[");
        for (i, event) in inner.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(event);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Writes the trace to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Nanoseconds → Chrome trace microseconds (fractional, 3 decimals).
fn us(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

impl Subscriber for ChromeTraceSubscriber {
    fn on_span_end(
        &self,
        _id: u64,
        name: &'static str,
        detail: Option<&str>,
        ts_nanos: u64,
        dur_nanos: u64,
        tid: u64,
    ) {
        let full_name = match detail {
            Some(d) => format!("{name} [{d}]"),
            None => name.to_string(),
        };
        let start = ts_nanos.saturating_sub(dur_nanos);
        let line = format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid}}}",
            json_escape(&full_name),
            us(start),
            us(dur_nanos)
        );
        self.inner.lock().expect("chrome trace lock").events.push(line);
    }

    fn on_counter(&self, name: &'static str, delta: u64, ts_nanos: u64, tid: u64) {
        let mut inner = self.inner.lock().expect("chrome trace lock");
        let total = {
            let slot = inner.counter_totals.entry(name).or_insert(0);
            *slot += delta;
            *slot
        };
        let line = format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"value\":{total}}}}}",
            json_escape(name),
            us(ts_nanos)
        );
        inner.events.push(line);
    }

    fn on_event(&self, name: &'static str, fields: &[(&'static str, Value)], ts: u64, tid: u64) {
        let line = format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{}}}",
            json_escape(name),
            us(ts),
            render_fields(fields)
        );
        self.inner.lock().expect("chrome trace lock").events.push(line);
    }
}
