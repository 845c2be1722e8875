//! Structured tracing and metrics for the tempo analysis stack.
//!
//! The explorer, the engine portfolio and the incremental analysis database
//! are performance-critical, and their behaviour used to be visible only
//! through scattered one-off statistics structs.  This crate provides one
//! `tracing`-style seam for all of them: named **spans** with RAII timing,
//! monotonic **counters**, bucketed **histograms** and structured **events**,
//! dispatched to a process-global [`Subscriber`].
//!
//! # Zero cost without a subscriber
//!
//! The instrumentation is designed to vanish when nobody is listening.  The
//! global subscriber slot is guarded by a single [`AtomicBool`] that every
//! instrumentation site checks with **one relaxed atomic load**; with no
//! subscriber installed, no timestamp is taken, no field is formatted, no
//! allocation happens and no lock is touched.  [`dispatch_count`] counts
//! actual subscriber deliveries so tests can assert the fast path stayed
//! silent.
//!
//! # Subscribers
//!
//! Three subscribers ship with the crate:
//!
//! * [`MetricsRegistry`] — in-memory aggregation (counter totals, histogram
//!   buckets, per-span call counts and cumulative nanoseconds), snapshotable
//!   to a JSON report.  The cheapest subscriber; suitable for production
//!   phase-time breakdowns.
//! * [`JsonlSubscriber`] — one JSON object per line for every span start/end,
//!   counter, histogram sample and event.  [`validate_jsonl`] checks a
//!   captured stream for parseability, balanced spans and per-thread
//!   monotone timestamps.
//! * [`ChromeTraceSubscriber`] — a Chrome `about:tracing` / Perfetto
//!   compatible trace for flamegraph-style inspection of parallel runs.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let registry = Arc::new(tempo_obs::MetricsRegistry::new());
//! tempo_obs::install(registry.clone());
//! {
//!     let _span = tempo_obs::span!("demo.phase");
//!     tempo_obs::counter("demo.widgets", 3);
//! }
//! tempo_obs::uninstall();
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("demo.widgets"), 3);
//! assert_eq!(snapshot.span_count("demo.phase"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod subscribers;
mod validate;

pub use subscribers::{
    ChromeTraceSubscriber, HistogramSnapshot, JsonlSubscriber, MetricsRegistry, MetricsSnapshot,
    SpanSnapshot,
};
pub use validate::{validate_jsonl, TraceCheck};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// A structured field value attached to an [`event!`].
#[derive(Clone, Debug)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string.
    Str(String),
}

impl Value {
    /// Appends the value to `out` as a JSON literal.
    pub fn render_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) if v.is_finite() => out.push_str(&format!("{v}")),
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Receives the instrumentation stream.  All methods default to no-ops so a
/// subscriber only implements what it consumes.
///
/// Timestamps (`ts_nanos`) are nanoseconds since an arbitrary process-local
/// epoch, monotone per thread; `tid` is a small dense per-thread index (not
/// the OS thread id); span `id`s are unique per process.
pub trait Subscriber: Send + Sync {
    /// A span opened (`id` pairs it with the matching [`Subscriber::on_span_end`]).
    fn on_span_start(
        &self,
        id: u64,
        name: &'static str,
        detail: Option<&str>,
        ts_nanos: u64,
        tid: u64,
    ) {
        let _ = (id, name, detail, ts_nanos, tid);
    }

    /// A span closed; `dur_nanos` is the RAII-measured duration.
    fn on_span_end(
        &self,
        id: u64,
        name: &'static str,
        detail: Option<&str>,
        ts_nanos: u64,
        dur_nanos: u64,
        tid: u64,
    ) {
        let _ = (id, name, detail, ts_nanos, dur_nanos, tid);
    }

    /// A monotonic counter incremented by `delta`.
    fn on_counter(&self, name: &'static str, delta: u64, ts_nanos: u64, tid: u64) {
        let _ = (name, delta, ts_nanos, tid);
    }

    /// One sample recorded into the named histogram.
    fn on_histogram(&self, name: &'static str, value: u64, ts_nanos: u64, tid: u64) {
        let _ = (name, value, ts_nanos, tid);
    }

    /// A structured point event.
    fn on_event(&self, name: &'static str, fields: &[(&'static str, Value)], ts_nanos: u64, tid: u64) {
        let _ = (name, fields, ts_nanos, tid);
    }
}

/// Fast-path gate: `true` iff a subscriber is installed.  Every
/// instrumentation macro and function checks this first, so the disabled
/// cost of an instrumentation site is one relaxed atomic load and a branch.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// The installed subscriber (slow path only).
static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

/// Number of records actually delivered to a subscriber — the observable for
/// "the fast path stayed silent" (see `tests/obs_fastpath.rs` in the
/// workspace root).
static DISPATCHED: AtomicU64 = AtomicU64::new(0);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-local trace epoch (first use).
pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Installs `subscriber` as the process-global subscriber, replacing any
/// previous one.  The flag is process-global and not synchronized with
/// in-flight instrumentation, so install/uninstall from tests that own the
/// whole process or serialize access.
pub fn install(subscriber: Arc<dyn Subscriber>) {
    *SUBSCRIBER.write().expect("tempo_obs subscriber lock") = Some(subscriber);
    INSTALLED.store(true, Ordering::SeqCst);
}

/// Removes the global subscriber, restoring the zero-cost fast path.
pub fn uninstall() {
    INSTALLED.store(false, Ordering::SeqCst);
    *SUBSCRIBER.write().expect("tempo_obs subscriber lock") = None;
}

/// `true` iff a subscriber is installed — one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// How many records have been delivered to subscribers since process start.
/// Stays exactly zero while no subscriber is installed.
pub fn dispatch_count() -> u64 {
    DISPATCHED.load(Ordering::SeqCst)
}

/// Slow path: clones the subscriber out of the slot (so its callbacks run
/// without the global lock held) and invokes `f` with it and the calling
/// thread's dense index.
fn with_subscriber(f: impl FnOnce(&dyn Subscriber, u64)) {
    let subscriber = SUBSCRIBER
        .read()
        .ok()
        .and_then(|slot| slot.as_ref().map(Arc::clone));
    if let Some(subscriber) = subscriber {
        DISPATCHED.fetch_add(1, Ordering::Relaxed);
        TID.with(|tid| f(subscriber.as_ref(), *tid));
    }
}

/// Increments the named monotonic counter.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let ts = now_nanos();
    with_subscriber(|s, tid| s.on_counter(name, delta, ts, tid));
}

/// Records one sample into the named histogram.
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let ts = now_nanos();
    with_subscriber(|s, tid| s.on_histogram(name, value, ts, tid));
}

/// Emits a structured event.  Prefer the [`event!`] macro, which skips field
/// construction entirely when no subscriber is installed.
pub fn dispatch_event(name: &'static str, fields: &[(&'static str, Value)]) {
    if !enabled() {
        return;
    }
    let ts = now_nanos();
    with_subscriber(|s, tid| s.on_event(name, fields, ts, tid));
}

/// An RAII span: times the enclosed scope and reports it to the subscriber
/// on drop.  Construct with [`span!`] (or [`SpanGuard::start`]).  When no
/// subscriber is installed the guard is inert: no timestamp is taken and
/// drop is a no-op.
#[must_use = "a span measures the scope it is alive in; bind it to a variable"]
pub struct SpanGuard {
    name: &'static str,
    detail: Option<String>,
    id: u64,
    start: Option<Instant>,
    start_ts: u64,
}

impl SpanGuard {
    /// Opens a span (no detail label).
    pub fn start(name: &'static str) -> SpanGuard {
        SpanGuard::with_detail(name, None)
    }

    /// Opens a span with an optional detail label (e.g. an engine name or a
    /// worker index).  Pass `None` when disabled — [`span!`] only builds the
    /// label when a subscriber is installed.
    pub fn with_detail(name: &'static str, detail: Option<String>) -> SpanGuard {
        if !enabled() {
            return SpanGuard {
                name,
                detail: None,
                id: 0,
                start: None,
                start_ts: 0,
            };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let start_ts = now_nanos();
        with_subscriber(|s, tid| s.on_span_start(id, name, detail.as_deref(), start_ts, tid));
        SpanGuard {
            name,
            detail,
            id,
            start: Some(Instant::now()),
            start_ts,
        }
    }

    /// The span's process-unique id (`0` when the span is inert).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Nanoseconds since the trace epoch when the span opened.
    pub fn start_nanos(&self) -> u64 {
        self.start_ts
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur = start.elapsed().as_nanos() as u64;
            let ts = now_nanos();
            let detail = self.detail.take();
            with_subscriber(|s, tid| {
                s.on_span_end(self.id, self.name, detail.as_deref(), ts, dur, tid)
            });
        }
    }
}

/// Opens an RAII [`SpanGuard`] for the enclosing scope.
///
/// `span!("name")` opens a plain span; `span!("name", expr)` attaches a
/// detail label, with `expr` evaluated (and formatted with `to_string`)
/// **only when a subscriber is installed**.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::start($name)
    };
    ($name:expr, $detail:expr) => {{
        let detail = if $crate::enabled() {
            Some(($detail).to_string())
        } else {
            None
        };
        $crate::SpanGuard::with_detail($name, detail)
    }};
}

/// Emits a structured event with named fields:
/// `event!("db.hit", cone = hash, queries = n)`.  Field expressions are
/// evaluated **only when a subscriber is installed**.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::dispatch_event(
                $name,
                &[$((stringify!($key), $crate::Value::from($value))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The subscriber slot is process-global, so the tests of this crate run
    // under one lock to avoid cross-talk.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_sites_do_not_dispatch() {
        let _guard = TEST_LOCK.lock().unwrap();
        uninstall();
        let before = dispatch_count();
        counter("test.counter", 1);
        histogram("test.histogram", 42);
        event!("test.event", answer = 42u64);
        {
            let _span = span!("test.span");
        }
        {
            let _span = span!("test.span", format!("never built"));
        }
        assert_eq!(dispatch_count(), before, "no subscriber => no dispatch");
    }

    #[test]
    fn metrics_registry_aggregates() {
        let _guard = TEST_LOCK.lock().unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        install(registry.clone());
        counter("test.widgets", 2);
        counter("test.widgets", 3);
        histogram("test.sizes", 7);
        event!("test.ping", n = 1u64);
        {
            let _span = span!("test.phase");
        }
        {
            let _span = span!("test.phase", "labelled");
        }
        uninstall();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("test.widgets"), 5);
        // Labelled spans aggregate under the plain name too, so phase totals
        // cover every label.
        assert_eq!(snap.span_count("test.phase"), 2);
        assert_eq!(snap.span_count("test.phase:labelled"), 1);
        assert!(snap.span_total_nanos("test.phase") > 0 || snap.span_count("test.phase") > 0);
        assert_eq!(snap.event_count("test.ping"), 1);
        let json = snap.to_json();
        assert!(json.contains("\"test.widgets\": 5"), "json: {json}");
    }

    #[test]
    fn jsonl_stream_validates() {
        let _guard = TEST_LOCK.lock().unwrap();
        let jsonl = Arc::new(JsonlSubscriber::new());
        install(jsonl.clone());
        {
            let _outer = span!("outer");
            {
                let _inner = span!("inner", 42u64);
            }
            counter("c", 1);
            event!("e", k = "v");
        }
        uninstall();
        let lines = jsonl.lines();
        assert!(lines.len() >= 6, "lines: {lines:?}");
        let check = validate_jsonl(lines.iter().map(String::as_str)).expect("valid trace");
        assert_eq!(check.spans_started, 2);
        assert_eq!(check.spans_ended, 2);
        assert!(check.max_depth >= 2);
    }

    #[test]
    fn jsonl_validator_rejects_unbalanced_and_nonmonotone() {
        let unbalanced = [r#"{"type":"span_start","id":1,"name":"a","ts":5,"tid":0}"#];
        assert!(validate_jsonl(unbalanced.iter().copied()).is_err());
        let nonmonotone = [
            r#"{"type":"event","name":"a","ts":10,"tid":0,"fields":{}}"#,
            r#"{"type":"event","name":"b","ts":4,"tid":0,"fields":{}}"#,
        ];
        assert!(validate_jsonl(nonmonotone.iter().copied()).is_err());
        let garbage = ["not json at all"];
        assert!(validate_jsonl(garbage.iter().copied()).is_err());
    }

    #[test]
    fn chrome_trace_exports_complete_events() {
        let _guard = TEST_LOCK.lock().unwrap();
        let chrome = Arc::new(ChromeTraceSubscriber::new());
        install(chrome.clone());
        {
            let _span = span!("chrome.phase");
        }
        counter("chrome.count", 2);
        uninstall();
        let json = chrome.to_json();
        assert!(json.starts_with("{\"traceEvents\":["), "json: {json}");
        assert!(json.contains("\"ph\":\"X\""), "complete event missing: {json}");
        assert!(json.contains("\"ph\":\"C\""), "counter event missing: {json}");
    }
}
