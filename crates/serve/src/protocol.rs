//! The line-oriented request/response protocol.
//!
//! One JSON object per line in each direction.  Requests carry an `op` tag
//! and a client-chosen numeric `id` (unique per connection); the server
//! answers each request with exactly one *response* frame
//! (`{"frame":"response","id":N,"ok":true,"result":…}` or
//! `{"frame":"response","id":N,"ok":false,"error":{"kind":…,"detail":…}}`)
//! and may interleave any number of *progress* frames
//! (`{"frame":"progress","id":N,…}`) tagged with the same id, so concurrent
//! requests multiplex safely over one connection.
//!
//! Operations: `load_model`, `edit_model`, `query`, `query_batch`, `cancel`,
//! `stats`, `shutdown`.  Responses to `query`/`query_batch` may arrive out of
//! submission order (they run on the admission-controlled worker pool); the
//! other operations are answered inline by the connection reader.

use crate::json::{self, JsonValue};
use crate::wire::{self, WireError};
use tempo_arch::engine::Query;
use tempo_arch::model::ArchitectureModel;
use tempo_check::SearchProgress;

/// Per-request execution options of `query` / `query_batch`.
#[derive(Clone, Debug, Default)]
pub struct RequestOpts {
    /// Wall-clock budget in milliseconds (merged with, and capped by, the
    /// server's configured budgets).
    pub budget_ms: Option<u64>,
    /// Symbolic-state budget.
    pub max_states: Option<usize>,
    /// Stream `progress` frames for this request.
    pub progress: bool,
    /// Seed of a deterministic [`tempo_check::FaultPlan`] threaded into the
    /// run (chaos testing over the wire).
    pub fault_seed: Option<u64>,
}

/// A parsed request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Load (or replace) a model; optional per-model cap-factor overrides
    /// select which shared `AnalysisDb` serves it.
    LoadModel {
        /// Request id.
        id: u64,
        /// The model.
        model: ArchitectureModel,
        /// Override of `AnalysisConfig::initial_cap_factor`.
        initial_cap_factor: Option<i64>,
        /// Override of `AnalysisConfig::max_cap_factor`.
        max_cap_factor: Option<i64>,
    },
    /// Replace an already-loaded model under the same name.  The analysis
    /// database is content-addressed, so queries whose input cone the edit
    /// did not touch keep hitting the warm cache.
    EditModel {
        /// Request id.
        id: u64,
        /// The replacement model (same `name` as a loaded one).
        model: ArchitectureModel,
    },
    /// One typed query against a loaded model.
    Query {
        /// Request id.
        id: u64,
        /// Loaded model name.
        model: String,
        /// The query.
        query: Query,
        /// Execution options.
        opts: RequestOpts,
    },
    /// A batch of queries against one loaded model, answered in one job and
    /// one response; each element is answered exactly as a dedicated query.
    /// When every query is a `wcrt` and together they cover the model's
    /// requirement set exactly, the response reports `batched: true`.
    QueryBatch {
        /// Request id.
        id: u64,
        /// Loaded model name.
        model: String,
        /// The queries.
        queries: Vec<Query>,
        /// Execution options (shared by the batch).
        opts: RequestOpts,
    },
    /// Cancel an in-flight or queued `query`/`query_batch` by its id.
    Cancel {
        /// Request id of the cancel itself.
        id: u64,
        /// Id of the request to cancel.
        target: u64,
    },
    /// Server statistics: per-config `DbStats`, admission counters and the
    /// metrics-registry snapshot.
    Stats {
        /// Request id.
        id: u64,
    },
    /// Graceful shutdown.
    Shutdown {
        /// Request id.
        id: u64,
    },
}

impl Request {
    /// The request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::LoadModel { id, .. }
            | Request::EditModel { id, .. }
            | Request::Query { id, .. }
            | Request::QueryBatch { id, .. }
            | Request::Cancel { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

fn parse_opts(v: &JsonValue) -> Result<RequestOpts, WireError> {
    let Some(o) = v.get("opts") else {
        return Ok(RequestOpts::default());
    };
    if o.is_null() {
        return Ok(RequestOpts::default());
    }
    Ok(RequestOpts {
        budget_ms: o.get("budget_ms").and_then(JsonValue::as_u64),
        max_states: o.get("max_states").and_then(JsonValue::as_usize),
        progress: o
            .get("progress")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
        fault_seed: o.get("fault_seed").and_then(JsonValue::as_u64),
    })
}

/// Parses one request line.  On failure the error carries the request id when
/// one could still be extracted, so the caller can address its error response.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, WireError)> {
    let v = json::parse(line)
        .map_err(|e| (None, WireError::new("parse", e.to_string())))?;
    let id = v.get("id").and_then(JsonValue::as_u64);
    let fail = |e: WireError| (id, e);
    let id = id.ok_or_else(|| {
        (
            None,
            WireError::bad_request("request needs an integer `id`"),
        )
    })?;
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| fail(WireError::bad_request("request needs a string `op`")))?;
    match op {
        "load_model" => {
            let model = wire::model_from_json(
                v.get("model")
                    .ok_or_else(|| fail(WireError::bad_request("load_model needs `model`")))?,
            )
            .map_err(fail)?;
            let cfg = v.get("config");
            let as_factor = |key: &str| {
                cfg.and_then(|c| c.get(key))
                    .and_then(JsonValue::as_i128)
                    .and_then(|i| i64::try_from(i).ok())
            };
            Ok(Request::LoadModel {
                id,
                model,
                initial_cap_factor: as_factor("initial_cap_factor"),
                max_cap_factor: as_factor("max_cap_factor"),
            })
        }
        "edit_model" => {
            let model = wire::model_from_json(
                v.get("model")
                    .ok_or_else(|| fail(WireError::bad_request("edit_model needs `model`")))?,
            )
            .map_err(fail)?;
            Ok(Request::EditModel { id, model })
        }
        "query" => Ok(Request::Query {
            id,
            model: v
                .get("model")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| fail(WireError::bad_request("query needs a `model` name")))?
                .to_string(),
            query: wire::query_from_json(
                v.get("query")
                    .ok_or_else(|| fail(WireError::bad_request("query needs `query`")))?,
            )
            .map_err(fail)?,
            opts: parse_opts(&v).map_err(fail)?,
        }),
        "query_batch" => {
            let queries = v
                .get("queries")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| fail(WireError::bad_request("query_batch needs `queries`")))?
                .iter()
                .map(wire::query_from_json)
                .collect::<Result<Vec<_>, _>>()
                .map_err(fail)?;
            if queries.is_empty() {
                return Err(fail(WireError::bad_request("empty query batch")));
            }
            Ok(Request::QueryBatch {
                id,
                model: v
                    .get("model")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| {
                        fail(WireError::bad_request("query_batch needs a `model` name"))
                    })?
                    .to_string(),
                queries,
                opts: parse_opts(&v).map_err(fail)?,
            })
        }
        "cancel" => Ok(Request::Cancel {
            id,
            target: v
                .get("target")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| fail(WireError::bad_request("cancel needs a `target` id")))?,
        }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(fail(WireError::bad_request(format!(
            "unknown op `{other}`"
        )))),
    }
}

/// A successful response line (no trailing newline).
pub fn response_ok(id: u64, result: JsonValue) -> String {
    JsonValue::obj([
        ("frame", "response".into()),
        ("id", id.into()),
        ("ok", true.into()),
        ("result", result),
    ])
    .print()
}

/// An error response line.  `id` is `null` when the request was too malformed
/// to carry one.
pub fn response_err(id: Option<u64>, err: &WireError) -> String {
    JsonValue::obj([
        ("frame", "response".into()),
        (
            "id",
            match id {
                Some(i) => i.into(),
                None => JsonValue::Null,
            },
        ),
        ("ok", false.into()),
        ("error", err.to_json()),
    ])
    .print()
}

/// A progress frame line, tagged with the request id it belongs to.
pub fn progress_frame(id: u64, p: &SearchProgress) -> String {
    let mut v = wire::progress_to_json(p);
    v.set("frame", "progress".into());
    v.set("id", id.into());
    v.print()
}

/// Serializes a `query` request (the client side of [`parse_request`]).
pub fn request_query(id: u64, model: &str, query: &Query, opts: &RequestOpts) -> String {
    let mut v = JsonValue::obj([
        ("op", "query".into()),
        ("id", id.into()),
        ("model", model.into()),
        ("query", wire::query_to_json(query)),
    ]);
    v.set("opts", opts_to_json(opts));
    v.print()
}

/// Serializes a `query_batch` request.
pub fn request_query_batch(
    id: u64,
    model: &str,
    queries: &[Query],
    opts: &RequestOpts,
) -> String {
    let mut v = JsonValue::obj([
        ("op", "query_batch".into()),
        ("id", id.into()),
        ("model", model.into()),
        (
            "queries",
            queries
                .iter()
                .map(wire::query_to_json)
                .collect::<Vec<_>>()
                .into(),
        ),
    ]);
    v.set("opts", opts_to_json(opts));
    v.print()
}

fn opts_to_json(opts: &RequestOpts) -> JsonValue {
    let mut o = JsonValue::object();
    if let Some(b) = opts.budget_ms {
        o.set("budget_ms", b.into());
    }
    if let Some(s) = opts.max_states {
        o.set("max_states", s.into());
    }
    if opts.progress {
        o.set("progress", true.into());
    }
    if let Some(s) = opts.fault_seed {
        o.set("fault_seed", s.into());
    }
    o
}

/// Serializes a `load_model` request.
pub fn request_load_model(
    id: u64,
    model: &ArchitectureModel,
    initial_cap_factor: Option<i64>,
    max_cap_factor: Option<i64>,
) -> String {
    let mut v = JsonValue::obj([
        ("op", "load_model".into()),
        ("id", id.into()),
        ("model", wire::model_to_json(model)),
    ]);
    let mut cfg = JsonValue::object();
    if let Some(f) = initial_cap_factor {
        cfg.set("initial_cap_factor", (f as i128).into());
    }
    if let Some(f) = max_cap_factor {
        cfg.set("max_cap_factor", (f as i128).into());
    }
    if cfg != JsonValue::object() {
        v.set("config", cfg);
    }
    v.print()
}

/// Serializes an `edit_model` request.
pub fn request_edit_model(id: u64, model: &ArchitectureModel) -> String {
    JsonValue::obj([
        ("op", "edit_model".into()),
        ("id", id.into()),
        ("model", wire::model_to_json(model)),
    ])
    .print()
}

/// Serializes a `cancel` request.
pub fn request_cancel(id: u64, target: u64) -> String {
    JsonValue::obj([
        ("op", "cancel".into()),
        ("id", id.into()),
        ("target", target.into()),
    ])
    .print()
}

/// Serializes a `stats` request.
pub fn request_stats(id: u64) -> String {
    JsonValue::obj([("op", "stats".into()), ("id", id.into())]).print()
}

/// Serializes a `shutdown` request.
pub fn request_shutdown(id: u64) -> String {
    JsonValue::obj([("op", "shutdown".into()), ("id", id.into())]).print()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_request_round_trips() {
        let opts = RequestOpts {
            budget_ms: Some(250),
            max_states: Some(10_000),
            progress: true,
            fault_seed: Some(42),
        };
        let line = request_query(7, "m", &Query::wcrt("r"), &opts);
        match parse_request(&line).unwrap() {
            Request::Query {
                id,
                model,
                query,
                opts,
            } => {
                assert_eq!(id, 7);
                assert_eq!(model, "m");
                assert_eq!(query, Query::wcrt("r"));
                assert_eq!(opts.budget_ms, Some(250));
                assert_eq!(opts.max_states, Some(10_000));
                assert!(opts.progress);
                assert_eq!(opts.fault_seed, Some(42));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_carry_ids_when_possible() {
        let (id, err) = parse_request("not json").unwrap_err();
        assert_eq!(id, None);
        assert_eq!(err.kind, "parse");
        let (id, err) = parse_request("{\"op\":\"nope\",\"id\":9}").unwrap_err();
        assert_eq!(id, Some(9));
        assert_eq!(err.kind, "bad_request");
        let (id, err) = parse_request("{\"op\":\"query\",\"id\":3}").unwrap_err();
        assert_eq!(id, Some(3));
        assert_eq!(err.kind, "bad_request");
    }
}
