//! Structural validation of a captured JSONL trace
//! ([`JsonlSubscriber`](crate::JsonlSubscriber) output): every line must
//! parse, spans must balance per thread (strict LIFO nesting, matching ids),
//! and timestamps must be monotone per thread.  The unit tests run it over a
//! live subscriber's stream so the export format cannot rot, and
//! `tests/trace_chaos.rs` runs it over fault-injected runs to prove panics
//! and budget expiries still produce well-formed traces.

use std::collections::HashMap;

/// Summary of a successfully validated trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total non-empty lines validated.
    pub lines: usize,
    /// `span_start` records seen.
    pub spans_started: usize,
    /// `span_end` records seen.
    pub spans_ended: usize,
    /// Deepest per-thread span nesting observed.
    pub max_depth: usize,
    /// Distinct thread indices observed.
    pub threads: usize,
}

/// Extracts the string value of `"key":"…"` from a single-line JSON object.
fn str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    // Our writer escapes quotes as \"; scan for the first unescaped quote.
    let mut end = 0;
    let bytes = rest.as_bytes();
    while end < bytes.len() {
        match bytes[end] {
            b'\\' => end += 2,
            b'"' => return Some(rest[..end].to_string()),
            _ => end += 1,
        }
    }
    None
}

/// Extracts the numeric value of `"key":123` from a single-line JSON object.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    if digits.is_empty() {
        None
    } else {
        digits.parse().ok()
    }
}

/// Validates a JSONL trace stream.  Returns the summary on success or a
/// description of the first structural violation: an unparseable line, a
/// `span_end` without a matching open span (or closing out of LIFO order),
/// a timestamp running backwards within a thread, or spans left open at the
/// end of the stream.
pub fn validate_jsonl<'a, I>(lines: I) -> Result<TraceCheck, String>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut check = TraceCheck::default();
    // Per-thread open-span stacks and timestamp high-water marks.
    let mut stacks: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    for (idx, raw) in lines.into_iter().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(format!("line {lineno}: not a JSON object: {line}"));
        }
        let kind = str_field(line, "type")
            .ok_or_else(|| format!("line {lineno}: missing \"type\": {line}"))?;
        let ts = num_field(line, "ts")
            .ok_or_else(|| format!("line {lineno}: missing \"ts\": {line}"))?;
        let tid = num_field(line, "tid")
            .ok_or_else(|| format!("line {lineno}: missing \"tid\": {line}"))?;
        if str_field(line, "name").is_none() && kind != "span_end" {
            return Err(format!("line {lineno}: missing \"name\": {line}"));
        }
        let prev = last_ts.entry(tid).or_insert(0);
        if ts < *prev {
            return Err(format!(
                "line {lineno}: timestamp {ts} runs backwards on tid {tid} (previous {prev})"
            ));
        }
        *prev = ts;
        match kind.as_str() {
            "span_start" => {
                let id = num_field(line, "id")
                    .ok_or_else(|| format!("line {lineno}: span_start without id"))?;
                let stack = stacks.entry(tid).or_default();
                stack.push(id);
                check.max_depth = check.max_depth.max(stack.len());
                check.spans_started += 1;
            }
            "span_end" => {
                let id = num_field(line, "id")
                    .ok_or_else(|| format!("line {lineno}: span_end without id"))?;
                let stack = stacks.entry(tid).or_default();
                match stack.pop() {
                    Some(open) if open == id => check.spans_ended += 1,
                    Some(open) => {
                        return Err(format!(
                            "line {lineno}: span {id} closed out of order on tid {tid} \
                             (innermost open span is {open})"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "line {lineno}: span {id} closed on tid {tid} with no span open"
                        ));
                    }
                }
            }
            "counter" | "histogram" | "event" => {}
            other => {
                return Err(format!("line {lineno}: unknown record type \"{other}\""));
            }
        }
        check.lines += 1;
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: {} span(s) left open at end of trace: {stack:?}",
                stack.len()
            ));
        }
    }
    check.threads = last_ts.len();
    Ok(check)
}
