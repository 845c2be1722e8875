//! The wire vocabulary: conversions between the engine-layer types and
//! [`JsonValue`], plus the typed protocol error.
//!
//! The design constraint is the PR 6 robustness contract — *never wrong, only
//! slower, looser, or explicitly declined* — surviving the wire: every
//! [`EngineError`] maps onto a [`WireError`] with a stable `kind` tag, and
//! estimates travel as exact rationals ([`TimeValue`] numerator/denominator
//! pairs), never as lossy floats.  [`answer_key`] renders the *answer* part of
//! an [`EngineReport`] (engine, query, estimates, verdict, truncation) to the
//! canonical JSON string, excluding run-dependent fields (wall time, stored
//! states) — the serve differential compares wire answers against direct
//! [`AnalysisDb::run`](tempo_arch::incremental::AnalysisDb::run) answers by
//! this key, byte for byte.

use crate::json::JsonValue;
use std::fmt;
use tempo_arch::engine::{EngineError, EngineReport, Estimate, Query, RequirementEstimate};
use tempo_arch::incremental::DbStats;
use tempo_arch::model::{
    ArchitectureModel, Bus, BusArbitration, BusId, EventModel, MeasurePoint, Processor,
    ProcessorId, Requirement, Scenario, SchedulingPolicy, ScenarioId, Step,
};
use tempo_arch::time::TimeValue;
use tempo_check::SearchProgress;

/// A typed protocol error: a stable `kind` tag plus human-readable detail.
///
/// Kinds mapped from [`EngineError`]: `model` (an unknown processor, bus or
/// scenario included), `unknown_requirement`,
/// `unsupported`, `overload`, `cancelled`, `timed_out`, `check`, `panicked`,
/// `internal`.  Protocol-level kinds: `parse`, `bad_request`,
/// `unknown_model`, `overloaded` (admission queue full), `shutting_down`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine-readable tag.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl WireError {
    /// Builds an error with the given kind and detail.
    pub fn new(kind: &str, detail: impl Into<String>) -> WireError {
        WireError {
            kind: kind.to_string(),
            detail: detail.into(),
        }
    }

    /// A malformed request body.
    pub fn bad_request(detail: impl Into<String>) -> WireError {
        WireError::new("bad_request", detail)
    }

    /// Maps an [`EngineError`] onto the wire, preserving its type.
    pub fn from_engine(e: &EngineError) -> WireError {
        let (kind, detail) = match e {
            EngineError::Model(d) => ("model", d.clone()),
            EngineError::UnknownEntity { .. } => ("model", e.to_string()),
            EngineError::UnknownRequirement(n) => ("unknown_requirement", n.clone()),
            EngineError::Unsupported { engine, detail } => {
                ("unsupported", format!("{engine}: {detail}"))
            }
            EngineError::Overload(d) => ("overload", d.clone()),
            EngineError::Cancelled => ("cancelled", "run cancelled".to_string()),
            EngineError::TimedOut => ("timed_out", "shared deadline expired".to_string()),
            EngineError::Check(c) => ("check", c.to_string()),
            EngineError::Panicked { engine, payload } => {
                ("panicked", format!("{engine}: {payload}"))
            }
            EngineError::Internal(d) => ("internal", d.clone()),
        };
        WireError {
            kind: kind.to_string(),
            detail,
        }
    }

    /// Renders as `{"kind":...,"detail":...}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("kind", self.kind.as_str().into()),
            ("detail", self.detail.as_str().into()),
        ])
    }

    /// Parses the `{"kind":...,"detail":...}` shape.
    pub fn from_json(v: &JsonValue) -> WireError {
        WireError {
            kind: v
                .get("kind")
                .and_then(JsonValue::as_str)
                .unwrap_or("internal")
                .to_string(),
            detail: v
                .get("detail")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// TimeValue
// ---------------------------------------------------------------------------

/// `TimeValue` → `{"num":N,"den":D}` (exact rational microseconds).
pub fn time_to_json(t: TimeValue) -> JsonValue {
    JsonValue::obj([
        ("num", t.numerator().into()),
        ("den", t.denominator().into()),
    ])
}

/// Parses the `{"num":N,"den":D}` shape.
pub fn time_from_json(v: &JsonValue) -> Result<TimeValue, WireError> {
    let num = v
        .get("num")
        .and_then(JsonValue::as_i128)
        .ok_or_else(|| WireError::bad_request("time value needs integer `num`"))?;
    let den = v
        .get("den")
        .and_then(JsonValue::as_i128)
        .ok_or_else(|| WireError::bad_request("time value needs integer `den`"))?;
    if den <= 0 {
        return Err(WireError::bad_request("time denominator must be positive"));
    }
    Ok(TimeValue::ratio_us(num, den))
}

// ---------------------------------------------------------------------------
// ArchitectureModel
// ---------------------------------------------------------------------------

fn policy_to_str(p: SchedulingPolicy) -> &'static str {
    match p {
        SchedulingPolicy::NonPreemptiveNd => "non_preemptive_nd",
        SchedulingPolicy::FixedPriorityNonPreemptive => "fixed_priority_non_preemptive",
        SchedulingPolicy::FixedPriorityPreemptive => "fixed_priority_preemptive",
    }
}

fn policy_from_str(s: &str) -> Result<SchedulingPolicy, WireError> {
    match s {
        "non_preemptive_nd" => Ok(SchedulingPolicy::NonPreemptiveNd),
        "fixed_priority_non_preemptive" => Ok(SchedulingPolicy::FixedPriorityNonPreemptive),
        "fixed_priority_preemptive" => Ok(SchedulingPolicy::FixedPriorityPreemptive),
        other => Err(WireError::bad_request(format!(
            "unknown scheduling policy `{other}`"
        ))),
    }
}

fn arbitration_to_json(a: &BusArbitration) -> JsonValue {
    match a {
        BusArbitration::FcfsNd => "fcfs_nd".into(),
        BusArbitration::FixedPriority => "fixed_priority".into(),
        BusArbitration::Tdma { slot } => {
            JsonValue::obj([("tdma", JsonValue::obj([("slot", time_to_json(*slot))]))])
        }
    }
}

fn arbitration_from_json(v: &JsonValue) -> Result<BusArbitration, WireError> {
    if let Some(s) = v.as_str() {
        return match s {
            "fcfs_nd" => Ok(BusArbitration::FcfsNd),
            "fixed_priority" => Ok(BusArbitration::FixedPriority),
            other => Err(WireError::bad_request(format!(
                "unknown bus arbitration `{other}`"
            ))),
        };
    }
    if let Some(t) = v.get("tdma") {
        let slot = t
            .get("slot")
            .ok_or_else(|| WireError::bad_request("tdma arbitration needs `slot`"))?;
        return Ok(BusArbitration::Tdma {
            slot: time_from_json(slot)?,
        });
    }
    Err(WireError::bad_request("unrecognized bus arbitration"))
}

fn event_model_to_json(e: &EventModel) -> JsonValue {
    match e {
        EventModel::PeriodicOffset { period, offset } => JsonValue::obj([
            ("kind", "periodic_offset".into()),
            ("period", time_to_json(*period)),
            ("offset", time_to_json(*offset)),
        ]),
        EventModel::Periodic { period } => JsonValue::obj([
            ("kind", "periodic".into()),
            ("period", time_to_json(*period)),
        ]),
        EventModel::Sporadic { min_interarrival } => JsonValue::obj([
            ("kind", "sporadic".into()),
            ("min_interarrival", time_to_json(*min_interarrival)),
        ]),
        EventModel::PeriodicJitter { period, jitter } => JsonValue::obj([
            ("kind", "periodic_jitter".into()),
            ("period", time_to_json(*period)),
            ("jitter", time_to_json(*jitter)),
        ]),
        EventModel::Burst {
            period,
            jitter,
            min_separation,
        } => JsonValue::obj([
            ("kind", "burst".into()),
            ("period", time_to_json(*period)),
            ("jitter", time_to_json(*jitter)),
            ("min_separation", time_to_json(*min_separation)),
        ]),
    }
}

fn field_time(v: &JsonValue, key: &str) -> Result<TimeValue, WireError> {
    time_from_json(
        v.get(key)
            .ok_or_else(|| WireError::bad_request(format!("missing time field `{key}`")))?,
    )
}

fn field_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, WireError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| WireError::bad_request(format!("missing string field `{key}`")))
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, WireError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| WireError::bad_request(format!("missing integer field `{key}`")))
}

fn event_model_from_json(v: &JsonValue) -> Result<EventModel, WireError> {
    match field_str(v, "kind")? {
        "periodic_offset" => Ok(EventModel::PeriodicOffset {
            period: field_time(v, "period")?,
            offset: field_time(v, "offset")?,
        }),
        "periodic" => Ok(EventModel::Periodic {
            period: field_time(v, "period")?,
        }),
        "sporadic" => Ok(EventModel::Sporadic {
            min_interarrival: field_time(v, "min_interarrival")?,
        }),
        "periodic_jitter" => Ok(EventModel::PeriodicJitter {
            period: field_time(v, "period")?,
            jitter: field_time(v, "jitter")?,
        }),
        "burst" => Ok(EventModel::Burst {
            period: field_time(v, "period")?,
            jitter: field_time(v, "jitter")?,
            min_separation: field_time(v, "min_separation")?,
        }),
        other => Err(WireError::bad_request(format!(
            "unknown event model `{other}`"
        ))),
    }
}

fn step_to_json(s: &Step) -> JsonValue {
    match s {
        Step::Execute {
            operation,
            instructions,
            on,
        } => JsonValue::obj([(
            "execute",
            JsonValue::obj([
                ("operation", operation.as_str().into()),
                ("instructions", (*instructions).into()),
                ("on", on.0.into()),
            ]),
        )]),
        Step::Transfer {
            message,
            bytes,
            over,
        } => JsonValue::obj([(
            "transfer",
            JsonValue::obj([
                ("message", message.as_str().into()),
                ("bytes", (*bytes).into()),
                ("over", over.0.into()),
            ]),
        )]),
    }
}

fn step_from_json(v: &JsonValue) -> Result<Step, WireError> {
    if let Some(e) = v.get("execute") {
        return Ok(Step::Execute {
            operation: field_str(e, "operation")?.to_string(),
            instructions: field_u64(e, "instructions")?,
            on: ProcessorId(
                e.get("on")
                    .and_then(JsonValue::as_usize)
                    .ok_or_else(|| WireError::bad_request("execute step needs `on`"))?,
            ),
        });
    }
    if let Some(t) = v.get("transfer") {
        return Ok(Step::Transfer {
            message: field_str(t, "message")?.to_string(),
            bytes: field_u64(t, "bytes")?,
            over: BusId(
                t.get("over")
                    .and_then(JsonValue::as_usize)
                    .ok_or_else(|| WireError::bad_request("transfer step needs `over`"))?,
            ),
        });
    }
    Err(WireError::bad_request(
        "step must be `execute` or `transfer`",
    ))
}

fn measure_point_to_json(m: MeasurePoint) -> JsonValue {
    match m {
        MeasurePoint::Stimulus => "stimulus".into(),
        MeasurePoint::AfterStep(i) => JsonValue::obj([("after_step", i.into())]),
    }
}

fn measure_point_from_json(v: &JsonValue) -> Result<MeasurePoint, WireError> {
    if v.as_str() == Some("stimulus") {
        return Ok(MeasurePoint::Stimulus);
    }
    if let Some(i) = v.get("after_step").and_then(JsonValue::as_usize) {
        return Ok(MeasurePoint::AfterStep(i));
    }
    Err(WireError::bad_request(
        "measure point must be \"stimulus\" or {\"after_step\":N}",
    ))
}

/// Renders a full architecture model.
pub fn model_to_json(m: &ArchitectureModel) -> JsonValue {
    JsonValue::obj([
        ("name", m.name.as_str().into()),
        (
            "processors",
            m.processors
                .iter()
                .map(|p| {
                    JsonValue::obj([
                        ("name", p.name.as_str().into()),
                        ("mips", p.mips.into()),
                        ("policy", policy_to_str(p.policy).into()),
                    ])
                })
                .collect::<Vec<_>>()
                .into(),
        ),
        (
            "buses",
            m.buses
                .iter()
                .map(|b| {
                    JsonValue::obj([
                        ("name", b.name.as_str().into()),
                        ("bits_per_second", b.bits_per_second.into()),
                        ("arbitration", arbitration_to_json(&b.arbitration)),
                    ])
                })
                .collect::<Vec<_>>()
                .into(),
        ),
        (
            "scenarios",
            m.scenarios
                .iter()
                .map(|s| {
                    JsonValue::obj([
                        ("name", s.name.as_str().into()),
                        ("stimulus", event_model_to_json(&s.stimulus)),
                        ("priority", (s.priority as u64).into()),
                        (
                            "steps",
                            s.steps.iter().map(step_to_json).collect::<Vec<_>>().into(),
                        ),
                    ])
                })
                .collect::<Vec<_>>()
                .into(),
        ),
        (
            "requirements",
            m.requirements
                .iter()
                .map(|r| {
                    JsonValue::obj([
                        ("name", r.name.as_str().into()),
                        ("scenario", r.scenario.0.into()),
                        ("from", measure_point_to_json(r.from)),
                        ("to", measure_point_to_json(r.to)),
                        ("deadline", time_to_json(r.deadline)),
                    ])
                })
                .collect::<Vec<_>>()
                .into(),
        ),
    ])
}

fn field_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], WireError> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| WireError::bad_request(format!("missing array field `{key}`")))
}

/// Parses a full architecture model (structural checks only; semantic
/// validation stays with [`ArchitectureModel::validate`]).
pub fn model_from_json(v: &JsonValue) -> Result<ArchitectureModel, WireError> {
    let mut m = ArchitectureModel::new(field_str(v, "name")?);
    for p in field_array(v, "processors")? {
        m.processors.push(Processor {
            name: field_str(p, "name")?.to_string(),
            mips: field_u64(p, "mips")?,
            policy: policy_from_str(field_str(p, "policy")?)?,
        });
    }
    for b in field_array(v, "buses")? {
        m.buses.push(Bus {
            name: field_str(b, "name")?.to_string(),
            bits_per_second: field_u64(b, "bits_per_second")?,
            arbitration: arbitration_from_json(
                b.get("arbitration")
                    .ok_or_else(|| WireError::bad_request("bus needs `arbitration`"))?,
            )?,
        });
    }
    for s in field_array(v, "scenarios")? {
        let steps = field_array(s, "steps")?
            .iter()
            .map(step_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        m.scenarios.push(Scenario {
            name: field_str(s, "name")?.to_string(),
            stimulus: event_model_from_json(
                s.get("stimulus")
                    .ok_or_else(|| WireError::bad_request("scenario needs `stimulus`"))?,
            )?,
            priority: u32::try_from(field_u64(s, "priority")?)
                .map_err(|_| WireError::bad_request("priority out of range"))?,
            steps,
        });
    }
    for r in field_array(v, "requirements")? {
        m.requirements.push(Requirement {
            name: field_str(r, "name")?.to_string(),
            scenario: ScenarioId(
                r.get("scenario")
                    .and_then(JsonValue::as_usize)
                    .ok_or_else(|| WireError::bad_request("requirement needs `scenario`"))?,
            ),
            from: measure_point_from_json(
                r.get("from")
                    .ok_or_else(|| WireError::bad_request("requirement needs `from`"))?,
            )?,
            to: measure_point_from_json(
                r.get("to")
                    .ok_or_else(|| WireError::bad_request("requirement needs `to`"))?,
            )?,
            deadline: field_time(r, "deadline")?,
        });
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// Query / Estimate / EngineReport
// ---------------------------------------------------------------------------

/// Renders a typed query.
pub fn query_to_json(q: &Query) -> JsonValue {
    match q {
        Query::Wcrt { requirement } => JsonValue::obj([
            ("kind", "wcrt".into()),
            ("requirement", requirement.as_str().into()),
        ]),
        Query::WcrtAll => JsonValue::obj([("kind", "wcrt_all".into())]),
        Query::DeadlineCheck { requirement } => JsonValue::obj([
            ("kind", "deadline_check".into()),
            ("requirement", requirement.as_str().into()),
        ]),
        Query::QueueBounds => JsonValue::obj([("kind", "queue_bounds".into())]),
    }
}

/// Parses a typed query.
pub fn query_from_json(v: &JsonValue) -> Result<Query, WireError> {
    match field_str(v, "kind")? {
        "wcrt" => Ok(Query::Wcrt {
            requirement: field_str(v, "requirement")?.to_string(),
        }),
        "wcrt_all" => Ok(Query::WcrtAll),
        "deadline_check" => Ok(Query::DeadlineCheck {
            requirement: field_str(v, "requirement")?.to_string(),
        }),
        "queue_bounds" => Ok(Query::QueueBounds),
        other => Err(WireError::bad_request(format!("unknown query `{other}`"))),
    }
}

fn estimate_to_json(e: &Estimate) -> JsonValue {
    match e {
        Estimate::Exact(t) => {
            JsonValue::obj([("kind", "exact".into()), ("value", time_to_json(*t))])
        }
        Estimate::LowerBound(t) => JsonValue::obj([
            ("kind", "lower_bound".into()),
            ("value", time_to_json(*t)),
        ]),
        Estimate::UpperBound(t) => JsonValue::obj([
            ("kind", "upper_bound".into()),
            ("value", time_to_json(*t)),
        ]),
        Estimate::Interval { lo, hi } => JsonValue::obj([
            ("kind", "interval".into()),
            ("lo", time_to_json(*lo)),
            ("hi", time_to_json(*hi)),
        ]),
    }
}

/// Parses an estimate (used by the client-side helpers and tests).
pub fn estimate_from_json(v: &JsonValue) -> Result<Estimate, WireError> {
    match field_str(v, "kind")? {
        "exact" => Ok(Estimate::Exact(field_time(v, "value")?)),
        "lower_bound" => Ok(Estimate::LowerBound(field_time(v, "value")?)),
        "upper_bound" => Ok(Estimate::UpperBound(field_time(v, "value")?)),
        "interval" => Ok(Estimate::Interval {
            lo: field_time(v, "lo")?,
            hi: field_time(v, "hi")?,
        }),
        other => Err(WireError::bad_request(format!(
            "unknown estimate `{other}`"
        ))),
    }
}

fn requirement_estimate_to_json(r: &RequirementEstimate) -> JsonValue {
    JsonValue::obj([
        ("requirement", r.requirement.as_str().into()),
        ("estimate", estimate_to_json(&r.estimate)),
        ("deadline", time_to_json(r.deadline)),
        ("meets_deadline", r.meets_deadline.into()),
    ])
}

fn option_bool(v: Option<bool>) -> JsonValue {
    match v {
        Some(b) => JsonValue::Bool(b),
        None => JsonValue::Null,
    }
}

/// The answer part of a report — everything a client should treat as *the
/// result* — as a JSON object.  Excludes wall time and stored-state counts,
/// which vary run to run (and cold vs warm) without changing the answer.
pub fn answer_to_json(r: &EngineReport) -> JsonValue {
    JsonValue::obj([
        ("engine", r.engine.as_str().into()),
        ("query", query_to_json(&r.query)),
        (
            "estimates",
            r.estimates
                .iter()
                .map(requirement_estimate_to_json)
                .collect::<Vec<_>>()
                .into(),
        ),
        ("verdict", option_bool(r.verdict)),
        ("truncated", r.truncated.into()),
    ])
}

/// The canonical printed form of [`answer_to_json`] — the byte-identity key
/// of the serve differential.
pub fn answer_key(r: &EngineReport) -> String {
    answer_to_json(r).print()
}

/// The full report: the answer plus run metadata (wall time in microseconds,
/// stored symbolic states).
pub fn report_to_json(r: &EngineReport) -> JsonValue {
    let mut v = answer_to_json(r);
    v.set("wall_time_us", (r.wall_time.as_micros() as i128).into());
    v.set(
        "states_stored",
        match r.states_stored {
            Some(s) => s.into(),
            None => JsonValue::Null,
        },
    );
    v
}

/// Projects a wire report (as returned by the server) back onto its answer
/// key: drops the run-metadata fields and re-prints canonically.
pub fn wire_answer_key(report: &JsonValue) -> String {
    let mut v = report.clone();
    if let JsonValue::Object(m) = &mut v {
        m.remove("wall_time_us");
        m.remove("states_stored");
    }
    v.print()
}

/// Renders database statistics.
pub fn db_stats_to_json(s: &DbStats) -> JsonValue {
    JsonValue::obj([
        ("hits", s.hits.into()),
        ("misses", s.misses.into()),
        ("invalidations", s.invalidations.into()),
        ("generations", s.generations.into()),
        ("generation_nanos", s.generation_nanos.into()),
        ("exploration_nanos", s.exploration_nanos.into()),
    ])
}

/// Renders a progress sample (elapsed in integer microseconds).
pub fn progress_to_json(p: &SearchProgress) -> JsonValue {
    JsonValue::obj([
        ("states_explored", p.states_explored.into()),
        ("states_stored", p.states_stored.into()),
        ("waiting", p.waiting.into()),
        ("elapsed_us", (p.elapsed.as_micros() as i128).into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_model() -> ArchitectureModel {
        let mut m = ArchitectureModel::new("wire-sample");
        let cpu = m.add_processor("CPU", 100, SchedulingPolicy::FixedPriorityPreemptive);
        let bus = m.add_bus(
            "BUS",
            8_000,
            BusArbitration::Tdma {
                slot: TimeValue::millis(5),
            },
        );
        let s = m.add_scenario(Scenario {
            name: "s".into(),
            stimulus: EventModel::Burst {
                period: TimeValue::millis(10),
                jitter: TimeValue::millis(25),
                min_separation: TimeValue::ratio_us(1_500, 7),
            },
            priority: 3,
            steps: vec![
                Step::Execute {
                    operation: "op".into(),
                    instructions: 1_000,
                    on: cpu,
                },
                Step::Transfer {
                    message: "msg".into(),
                    bytes: 12,
                    over: bus,
                },
            ],
        });
        m.add_requirement(Requirement {
            name: "r".into(),
            scenario: s,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(1),
            deadline: TimeValue::millis(40),
        });
        m
    }

    #[test]
    fn model_round_trips_through_json_text() {
        let m = sample_model();
        let text = model_to_json(&m).print();
        let back = model_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn query_and_estimate_round_trip() {
        for q in [
            Query::wcrt("a"),
            Query::WcrtAll,
            Query::DeadlineCheck {
                requirement: "b".into(),
            },
            Query::QueueBounds,
        ] {
            let back = query_from_json(&json::parse(&query_to_json(&q).print()).unwrap()).unwrap();
            assert_eq!(q, back);
        }
        for e in [
            Estimate::Exact(TimeValue::ratio_us(22, 7)),
            Estimate::LowerBound(TimeValue::ZERO),
            Estimate::UpperBound(TimeValue::millis(3)),
            Estimate::Interval {
                lo: TimeValue::millis(1),
                hi: TimeValue::millis(2),
            },
        ] {
            let back =
                estimate_from_json(&json::parse(&estimate_to_json(&e).print()).unwrap()).unwrap();
            assert_eq!(e, back);
        }
    }

    #[test]
    fn engine_errors_keep_their_kind_on_the_wire() {
        let cases = [
            (EngineError::Model("bad".into()), "model"),
            (
                EngineError::UnknownEntity {
                    kind: tempo_arch::EntityKind::Bus,
                    name: "CAN".into(),
                },
                "model",
            ),
            (
                EngineError::UnknownRequirement("r".into()),
                "unknown_requirement",
            ),
            (EngineError::Overload("CPU".into()), "overload"),
            (EngineError::Cancelled, "cancelled"),
            (EngineError::TimedOut, "timed_out"),
            (
                EngineError::Panicked {
                    engine: "ta".into(),
                    payload: "boom".into(),
                },
                "panicked",
            ),
            (EngineError::Internal("x".into()), "internal"),
        ];
        for (e, kind) in cases {
            let w = WireError::from_engine(&e);
            assert_eq!(w.kind, kind);
            let back = WireError::from_json(&json::parse(&w.to_json().print()).unwrap());
            assert_eq!(w, back);
        }
    }
}
