//! # The unified analysis-engine API
//!
//! The paper's contribution (Section 5) is a *comparison*: exact
//! timed-automata worst-case response times, bracketed from below by
//! discrete-event simulation and from above by the SymTA/S and MPA analytic
//! bounds.  This module turns that comparison into a first-class, typed query
//! surface shared by all four techniques:
//!
//! * [`Query`] — what is being asked (a WCRT, all WCRTs, a deadline verdict,
//!   queue boundedness),
//! * [`Estimate`] — how an answer bounds the true value
//!   (exact / lower bound / upper bound / interval), with refinement and
//!   bracket-consistency helpers, so "sim ≤ exact ≤ analytic" is a typed
//!   relation instead of float plumbing in examples,
//! * [`Engine`] — the trait every technique implements (`TaEngine` here,
//!   `RtcEngine`, `SymtaEngine` and `SimEngine` in their crates); an engine
//!   declines a query it cannot answer with [`EngineError::Unsupported`],
//! * [`RunContext`] — one absolute deadline, a state budget, cooperative
//!   cancellation, progress reporting and fault injection.  It is
//!   `tempo_check`'s own type, so the explorer reads the caller's context
//!   directly and every exploration of a run stops by the same deadline;
//!   the non-symbolic engines honor it at their own granularity (e.g.
//!   between simulation runs),
//! * [`TaEngine`] — the exact engine.  It answers through its own
//!   [`AnalysisDb`], the one cache and query dispatcher of the exact
//!   analysis: one measuring observer and one exploration per requirement
//!   (the paper's Fig. 9), with complete answers reused across queries,
//! * [`Portfolio`] — fans a query across several engines, checks the paper's
//!   bracket invariant (every lower bound ≤ every exact value ≤ every upper
//!   bound, within [`BRACKET_TOLERANCE`]), and reconciles the answers into one
//!   [`Estimate`] — Tables 1/2 of the paper as an API call.
//!
//! The pre-existing free functions (`analyze_requirement`, `analyze_all`,
//! `check_queues_bounded`, and the per-technique `analyze_*` entry points)
//! lived on for a while as deprecated shims over this surface and have since
//! been dropped; the engine API is the only entry point.

use crate::analysis::{AnalysisConfig, EntityKind, WcrtReport};
use crate::incremental::AnalysisDb;
use crate::model::{ArchitectureModel, ModelError};
use crate::time::TimeValue;
use std::fmt;
use std::time::{Duration, Instant};
use tempo_check::{CheckError, FaultSite};

// The run context and fault-injection vocabulary, re-exported so engine users
// can bound, cancel and observe a run without depending on `tempo_check`
// directly.
pub use tempo_check::{quiet_injected_panics, FaultKind, RunContext};

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// A typed analysis query, the single entry point all engines share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// The worst-case response time of one requirement.
    Wcrt {
        /// Requirement name.
        requirement: String,
    },
    /// The worst-case response times of every requirement of the model.
    WcrtAll,
    /// Does the requirement meet its deadline?  The report's `verdict` is
    /// `Some(true)` when proven met, `Some(false)` when proven (or witnessed)
    /// violated, `None` when the engine cannot decide.
    DeadlineCheck {
        /// Requirement name.
        requirement: String,
    },
    /// Do all event queues stay within their configured capacity (the
    /// schedulability-style sanity check)?
    QueueBounds,
}

impl Query {
    /// Convenience constructor for [`Query::Wcrt`].
    pub fn wcrt(requirement: impl Into<String>) -> Query {
        Query::Wcrt {
            requirement: requirement.into(),
        }
    }

    /// Convenience constructor for [`Query::DeadlineCheck`].
    pub fn deadline_check(requirement: impl Into<String>) -> Query {
        Query::DeadlineCheck {
            requirement: requirement.into(),
        }
    }

    /// The requirement the query is about, if it targets a single one.
    pub fn requirement(&self) -> Option<&str> {
        match self {
            Query::Wcrt { requirement } | Query::DeadlineCheck { requirement } => {
                Some(requirement)
            }
            Query::WcrtAll | Query::QueueBounds => None,
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Wcrt { requirement } => write!(f, "wcrt({requirement})"),
            Query::WcrtAll => write!(f, "wcrt(*)"),
            Query::DeadlineCheck { requirement } => write!(f, "deadline({requirement})"),
            Query::QueueBounds => write!(f, "queue-bounds"),
        }
    }
}

// ---------------------------------------------------------------------------
// Estimates
// ---------------------------------------------------------------------------

/// How an engine's answer bounds the true worst-case response time.
///
/// This is the shared vocabulary of the comparison: the exact timed-automata
/// analysis returns [`Estimate::Exact`] (or [`Estimate::LowerBound`] when
/// truncated by a state or wall-clock budget), simulation returns
/// [`Estimate::LowerBound`] (it observes *some* schedules), and the analytic
/// baselines return [`Estimate::UpperBound`]s.  [`Estimate::refined_with`]
/// intersects two sound estimates of the same value;
/// [`Estimate::consistent_with`] is the bracket check of the portfolio.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Estimate {
    /// The value exactly.
    Exact(TimeValue),
    /// The true value is at least this (attained or approached).
    LowerBound(TimeValue),
    /// The true value is at most this.
    UpperBound(TimeValue),
    /// The true value lies in `[lo, hi]`.
    Interval {
        /// Inclusive lower end.
        lo: TimeValue,
        /// Inclusive upper end.
        hi: TimeValue,
    },
}

impl Estimate {
    /// The representative value (for an interval: the safe upper end).
    pub fn value(self) -> TimeValue {
        match self {
            Estimate::Exact(t) | Estimate::LowerBound(t) | Estimate::UpperBound(t) => t,
            Estimate::Interval { hi, .. } => hi,
        }
    }

    /// The representative value in milliseconds — the **single** float
    /// conversion path every report helper routes through.
    pub fn as_millis_f64(self) -> f64 {
        self.value().as_millis_f64()
    }

    /// The value if it is known exactly.
    pub fn exact(self) -> Option<TimeValue> {
        match self {
            Estimate::Exact(t) => Some(t),
            _ => None,
        }
    }

    /// The exact value in milliseconds, if known exactly.
    pub fn exact_millis(self) -> Option<f64> {
        self.exact().map(TimeValue::as_millis_f64)
    }

    /// `true` iff the estimate pins the value exactly.
    pub fn is_exact(self) -> bool {
        matches!(self, Estimate::Exact(_))
    }

    /// The best known lower bound on the true value, if any.
    pub fn lower(self) -> Option<TimeValue> {
        match self {
            Estimate::Exact(t) | Estimate::LowerBound(t) => Some(t),
            Estimate::UpperBound(_) => None,
            Estimate::Interval { lo, .. } => Some(lo),
        }
    }

    /// The best known upper bound on the true value, if any.
    pub fn upper(self) -> Option<TimeValue> {
        match self {
            Estimate::Exact(t) | Estimate::UpperBound(t) => Some(t),
            Estimate::LowerBound(_) => None,
            Estimate::Interval { hi, .. } => Some(hi),
        }
    }

    /// Intersects the knowledge of two sound estimates of the same value:
    /// the result carries the tighter bounds.  Returns `None` when the two
    /// contradict each other (some lower bound exceeds some upper bound) —
    /// at least one of them must then be wrong.
    pub fn refined_with(self, other: Estimate) -> Option<Estimate> {
        let lo = match (self.lower(), other.lower()) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let hi = match (self.upper(), other.upper()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match (lo, hi) {
            (Some(l), Some(h)) if l > h => None,
            (Some(l), Some(h)) if l == h => Some(Estimate::Exact(l)),
            (Some(l), Some(h)) => Some(Estimate::Interval { lo: l, hi: h }),
            (Some(l), None) => Some(Estimate::LowerBound(l)),
            (None, Some(h)) => Some(Estimate::UpperBound(h)),
            (None, None) => unreachable!("every estimate carries at least one bound"),
        }
    }

    /// The bracket check: `true` iff the two estimates can describe the same
    /// true value, allowing `tolerance` of slack (quantization and float
    /// rounding in the baselines).
    pub fn consistent_with(self, other: Estimate, tolerance: TimeValue) -> bool {
        let ordered = |lo: Option<TimeValue>, hi: Option<TimeValue>| match (lo, hi) {
            (Some(l), Some(h)) => l <= h + tolerance,
            _ => true,
        };
        ordered(self.lower(), other.upper()) && ordered(other.lower(), self.upper())
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Estimate::Exact(t) => write!(f, "= {t}"),
            Estimate::LowerBound(t) => write!(f, "\u{2265} {t}"),
            Estimate::UpperBound(t) => write!(f, "\u{2264} {t}"),
            Estimate::Interval { lo, hi } => write!(f, "[{lo}, {hi}]"),
        }
    }
}

// ---------------------------------------------------------------------------
// Engine trait, context, reports, errors
// ---------------------------------------------------------------------------

/// One requirement's answer within an [`EngineReport`].
#[derive(Clone, Debug)]
pub struct RequirementEstimate {
    /// Requirement name.
    pub requirement: String,
    /// The engine's estimate of the worst-case response time.
    pub estimate: Estimate,
    /// The requirement's deadline (for context).
    pub deadline: TimeValue,
    /// The engine's deadline verdict, where it can give one.
    pub meets_deadline: Option<bool>,
}

impl RequirementEstimate {
    /// Builds the estimate row of a timed-automata [`WcrtReport`].
    pub fn from_wcrt(report: &WcrtReport) -> RequirementEstimate {
        RequirementEstimate {
            requirement: report.requirement.clone(),
            estimate: report.estimate(),
            deadline: report.deadline,
            meets_deadline: report.meets_deadline,
        }
    }
}

impl fmt::Display for RequirementEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: WCRT {}", self.requirement, self.estimate)
    }
}

/// The uniform answer of one engine to one [`Query`].
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// The answering engine's [`Engine::name`].
    pub engine: String,
    /// The query answered.
    pub query: Query,
    /// Per-requirement estimates (empty for pure verdict queries).
    pub estimates: Vec<RequirementEstimate>,
    /// The verdict of [`Query::DeadlineCheck`] / [`Query::QueueBounds`]
    /// (`None`: the engine cannot decide, e.g. after a truncated search).
    pub verdict: Option<bool>,
    /// Wall-clock time the engine spent.
    pub wall_time: Duration,
    /// Symbolic states stored, for engines that explore a state space.
    pub states_stored: Option<usize>,
    /// `true` when a budget (wall-clock, state count, or an injected
    /// exhaustion) cut the run short: the estimates are then degraded —
    /// still *sound* (exact analyses report lower bounds) but possibly not
    /// tight, and verdicts may be `None`.  A [`Portfolio`] keeps a
    /// truncated answer as it is; it does not retry it.
    pub truncated: bool,
}

impl EngineReport {
    /// The estimate for `requirement`, if the report contains one.
    pub fn estimate_for(&self, requirement: &str) -> Option<&RequirementEstimate> {
        self.estimates.iter().find(|e| e.requirement == requirement)
    }
}

/// The shared error vocabulary of every engine.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The architecture model is invalid.
    Model(String),
    /// A requirement name could not be resolved.
    UnknownRequirement(String),
    /// A named processor, bus or scenario could not be resolved (e.g. a sweep
    /// axis targeting an entity the model does not contain).
    UnknownEntity {
        /// What kind of entity the name was expected to resolve to.
        kind: EntityKind,
        /// The requested name.
        name: String,
    },
    /// The engine cannot answer this query or analyze this model shape
    /// (e.g. the analytic baselines on TDMA buses, whose slot gating their
    /// resource model does not cover).
    Unsupported {
        /// The declining engine.
        engine: String,
        /// Why.
        detail: String,
    },
    /// A resource is overloaded; no finite answer exists.  For the exact
    /// engine: a bounded variable of the generated network left its
    /// declared range, an event queue counter (`q_…`) or another counter
    /// such as a preemption accumulator (`D_…`); the detail names it.
    Overload(String),
    /// The run was cancelled through [`RunContext::cancel`].
    Cancelled,
    /// The deadline ([`RunContext::deadline`]) expired before the engine
    /// could produce any answer.
    TimedOut,
    /// The model checker failed; the structured [`CheckError`] is preserved
    /// so callers can tell a retryable transient ([`CheckError::Transient`])
    /// from a genuine analysis failure.  (A state budget never errs: it
    /// truncates the run.)
    Check(CheckError),
    /// The engine panicked; the panic was caught at the
    /// [`Engine::run_isolated`] unwind barrier.
    Panicked {
        /// The panicking engine's name.
        engine: String,
        /// The panic payload, rendered as a string.
        payload: String,
    },
    /// Any other engine failure.
    Internal(String),
}

impl EngineError {
    /// `true` for failures where retrying the same run may well succeed: an
    /// isolated panic or a transient checker failure.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            EngineError::Panicked { .. } | EngineError::Check(CheckError::Transient { .. })
        )
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Model(m) => write!(f, "invalid architecture model: {m}"),
            EngineError::UnknownRequirement(n) => write!(f, "unknown requirement `{n}`"),
            EngineError::UnknownEntity { kind, name } => write!(f, "unknown {kind} `{name}`"),
            EngineError::Unsupported { engine, detail } => {
                write!(f, "engine `{engine}` cannot answer this query: {detail}")
            }
            EngineError::Overload(d) => write!(f, "resource overloaded: {d}"),
            EngineError::Cancelled => write!(f, "analysis cancelled"),
            EngineError::TimedOut => write!(f, "analysis timed out (shared deadline expired)"),
            EngineError::Check(e) => write!(f, "model checking failed: {e}"),
            EngineError::Panicked { engine, payload } => {
                write!(f, "engine `{engine}` panicked (isolated): {payload}")
            }
            EngineError::Internal(d) => write!(f, "analysis failed: {d}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Model(e.to_string())
    }
}

impl From<CheckError> for EngineError {
    fn from(e: CheckError) -> Self {
        match e {
            CheckError::Cancelled => EngineError::Cancelled,
            e => EngineError::Check(e),
        }
    }
}

/// Polls the [`FaultSite::EngineEntry`] instrumentation point on behalf of an
/// engine and translates the checker's fault vocabulary into engine errors.
/// Returns `Ok(true)` when an injected budget exhaustion asks the engine to
/// degrade (truncate as if its budget had just expired), `Ok(false)` when
/// nothing fired (always, when the context carries no plan).  An injected
/// panic propagates and is caught at the [`Engine::run_isolated`] barrier.
pub fn poll_entry_fault(ctx: &RunContext) -> Result<bool, EngineError> {
    match &ctx.faults {
        None => Ok(false),
        Some(plan) => Ok(plan.poll(FaultSite::EngineEntry)?),
    }
}

/// Declines a model containing TDMA buses on behalf of an analytic engine:
/// busy-window and service-curve resource models cover priority arbitration
/// only, so a "bound" computed under slot gating would not be safe.  Shared
/// by `RtcEngine` and `SymtaEngine` (and any future analytic baseline).
pub fn reject_tdma_buses(model: &ArchitectureModel, engine: &str) -> Result<(), EngineError> {
    if model
        .buses
        .iter()
        .any(|b| matches!(b.arbitration, crate::model::BusArbitration::Tdma { .. }))
    {
        return Err(EngineError::Unsupported {
            engine: engine.into(),
            detail: "TDMA slot gating is outside the engine's resource model; \
                     its bound would not be a safe upper bound"
                .into(),
        });
    }
    Ok(())
}

/// Builds the estimate row of an analytic upper bound: a bound below the
/// deadline proves the deadline met; a bound at or above it decides nothing.
/// The shared verdict convention of the upper-bound engines.
pub fn upper_bound_row(
    model: &ArchitectureModel,
    requirement: &str,
    bound: TimeValue,
) -> RequirementEstimate {
    let deadline = model
        .requirement_by_name(requirement)
        .map(|r| r.deadline)
        .unwrap_or(TimeValue::ZERO);
    RequirementEstimate {
        requirement: requirement.to_string(),
        estimate: Estimate::UpperBound(bound),
        deadline,
        meets_deadline: (bound < deadline).then_some(true),
    }
}

/// Drives an analytic upper-bound engine's query dispatch — the shared body
/// of `RtcEngine::run` and `SymtaEngine::run` (and any future analytic
/// baseline): declines [`Query::QueueBounds`], checks cancellation, declines
/// TDMA models, routes the query to the per-requirement (`one`) or
/// all-requirements (`all`) closure, applies the shared verdict conventions
/// and assembles the uniform report.
pub fn run_upper_bound_engine(
    engine: &'static str,
    model: &ArchitectureModel,
    query: &Query,
    ctx: &RunContext,
    one: &mut dyn FnMut(&str) -> Result<RequirementEstimate, EngineError>,
    all: &mut dyn FnMut() -> Result<Vec<RequirementEstimate>, EngineError>,
) -> Result<EngineReport, EngineError> {
    // Refused before the fault poll, so a query the engine never answers
    // does not consume a visit of the engine-entry fault site.
    if matches!(query, Query::QueueBounds) {
        return Err(EngineError::Unsupported {
            engine: engine.into(),
            detail: "queue-boundedness needs the exact state space".into(),
        });
    }
    if ctx.is_cancelled() {
        return Err(EngineError::Cancelled);
    }
    // Closed-form analyses have no budget to exhaust, so an injected budget
    // exhaustion (`Ok(true)`) is a no-op here; cancellations, transients and
    // panics take effect.
    poll_entry_fault(ctx)?;
    reject_tdma_buses(model, engine)?;
    let started = Instant::now();
    let (estimates, verdict) = match query {
        Query::Wcrt { requirement } => (vec![one(requirement)?], None),
        Query::DeadlineCheck { requirement } => {
            let row = one(requirement)?;
            let verdict = row.meets_deadline;
            (vec![row], verdict)
        }
        Query::WcrtAll => (all()?, None),
        Query::QueueBounds => unreachable!("declined on entry"),
    };
    Ok(EngineReport {
        engine: engine.into(),
        query: query.clone(),
        estimates,
        verdict,
        wall_time: started.elapsed(),
        states_stored: None,
        truncated: false,
    })
}

/// An analysis engine: one technique behind the unified query surface.
pub trait Engine {
    /// A short stable identifier ("timed-automata", "simulation", "symta",
    /// "mpa", "portfolio").
    fn name(&self) -> &'static str;

    /// Answers `query` about `model` under `ctx`.  A query or model shape the
    /// engine cannot answer is declined with [`EngineError::Unsupported`].
    fn run(
        &self,
        model: &ArchitectureModel,
        query: &Query,
        ctx: &RunContext,
    ) -> Result<EngineReport, EngineError>;

    /// [`Engine::run`] behind an unwind barrier: a panic anywhere inside the
    /// engine is caught and surfaced as [`EngineError::Panicked`] instead of
    /// unwinding into the caller.  The [`Portfolio`] always calls this, so a
    /// panicking member engine can never take the comparison down with it.
    fn run_isolated(
        &self,
        model: &ArchitectureModel,
        query: &Query,
        ctx: &RunContext,
    ) -> Result<EngineReport, EngineError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run(model, query, ctx)
        })) {
            Ok(result) => result,
            Err(payload) => Err(EngineError::Panicked {
                engine: self.name().to_string(),
                payload: tempo_check::panic_message(payload),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// The timed-automata engine
// ---------------------------------------------------------------------------

/// The exact timed-automata engine (the paper's primary technique), wrapping
/// the model checker behind the [`Engine`] trait.  It answers through its own
/// [`AnalysisDb`], one measuring observer and one exploration per
/// requirement, so repeated queries on a model (a portfolio run followed by
/// per-requirement drill-downs, say) reuse complete answers; [`TaEngine::db`]
/// exposes the cache and its counters.
pub struct TaEngine {
    db: AnalysisDb,
}

impl Default for TaEngine {
    fn default() -> Self {
        TaEngine::with_config(AnalysisConfig::default())
    }
}

impl TaEngine {
    /// An engine with the given analysis configuration.
    pub fn with_config(cfg: AnalysisConfig) -> TaEngine {
        TaEngine {
            db: AnalysisDb::new(cfg),
        }
    }

    /// The analysis database the engine answers through.
    pub fn db(&self) -> &AnalysisDb {
        &self.db
    }
}

impl Engine for TaEngine {
    fn name(&self) -> &'static str {
        "timed-automata"
    }

    fn run(
        &self,
        model: &ArchitectureModel,
        query: &Query,
        ctx: &RunContext,
    ) -> Result<EngineReport, EngineError> {
        let mut report = self.db.run(model, query, ctx)?;
        report.engine = self.name().into();
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// Portfolio
// ---------------------------------------------------------------------------

/// Classification of one engine run within a [`ComparisonReport`] — the
/// degradation ladder of the robustness invariant: an engine may be slower
/// (truncated, retried), declined, or cleanly failed, but its classification
/// is always explicit and reconciliation runs over whatever answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineStatus {
    /// Answered with complete results.
    Ok,
    /// Answered, but a budget cut the run short: the estimates are degraded
    /// (sound but possibly loose) and verdicts may be missing.
    Truncated,
    /// Declined the query or the model shape ([`EngineError::Unsupported`]).
    Declined,
    /// Panicked; the panic was isolated at the [`Engine::run_isolated`]
    /// barrier and did not affect the other engines.
    Panicked,
    /// The shared deadline expired before the engine could answer.
    TimedOut,
    /// Observed the cooperative cancellation flag.
    Cancelled,
    /// Failed with any other error.
    Failed,
}

impl EngineStatus {
    /// Classifies a run outcome.
    pub fn classify(outcome: &Result<EngineReport, EngineError>) -> EngineStatus {
        match outcome {
            Ok(report) if report.truncated => EngineStatus::Truncated,
            Ok(_) => EngineStatus::Ok,
            Err(EngineError::Unsupported { .. }) => EngineStatus::Declined,
            Err(EngineError::Panicked { .. }) => EngineStatus::Panicked,
            Err(EngineError::TimedOut) => EngineStatus::TimedOut,
            Err(EngineError::Cancelled) => EngineStatus::Cancelled,
            Err(_) => EngineStatus::Failed,
        }
    }
}

impl fmt::Display for EngineStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineStatus::Ok => "ok",
            EngineStatus::Truncated => "truncated",
            EngineStatus::Declined => "declined",
            EngineStatus::Panicked => "panicked",
            EngineStatus::TimedOut => "timed out",
            EngineStatus::Cancelled => "cancelled",
            EngineStatus::Failed => "failed",
        })
    }
}

/// One engine's raw outcome within a [`ComparisonReport`].
#[derive(Debug)]
pub struct EngineRow {
    /// The engine's [`Engine::name`].
    pub engine: String,
    /// Classification of the outcome (ok / truncated / declined / panicked /
    /// timed out / cancelled / failed).
    pub status: EngineStatus,
    /// How many attempts the engine got (1 normally, a declined query
    /// included; 2 when a transient failure was retried; 0 only when the
    /// shared deadline had expired before the first attempt).
    pub attempts: usize,
    /// The run result (engines that declined or failed keep their error so
    /// the comparison stays auditable).
    pub outcome: Result<EngineReport, EngineError>,
}

/// The reconciled cross-engine answer for one requirement.
#[derive(Clone, Debug)]
pub struct RequirementComparison {
    /// Requirement name.
    pub requirement: String,
    /// The requirement's deadline.
    pub deadline: TimeValue,
    /// `(engine name, estimate)` of every engine that answered.
    pub estimates: Vec<(String, Estimate)>,
    /// The intersection of all consistent estimates (the exact value when an
    /// exact engine ran; the tightest bracket otherwise).
    pub reconciled: Estimate,
    /// Reconciled deadline verdict.
    pub meets_deadline: Option<bool>,
    /// Human-readable descriptions of every bracket violation (a lower bound
    /// exceeding an upper bound by more than [`BRACKET_TOLERANCE`]) — empty
    /// when the paper's `sim ≤ exact ≤ analytic` invariant holds.
    pub violations: Vec<String>,
}

/// The result of a [`Portfolio`] run: per-engine rows plus the reconciled
/// per-requirement bracket — Tables 1/2 of the paper as a data structure.
#[derive(Debug)]
pub struct ComparisonReport {
    /// The query compared.
    pub query: Query,
    /// One row per portfolio engine.
    pub rows: Vec<EngineRow>,
    /// Reconciled estimates, one per requirement covered by the query.
    pub requirements: Vec<RequirementComparison>,
    /// Reconciled verdict for verdict queries ([`Query::DeadlineCheck`],
    /// [`Query::QueueBounds`]).
    pub verdict: Option<bool>,
}

impl ComparisonReport {
    /// `true` iff no requirement shows a bracket violation.
    pub fn bracket_ok(&self) -> bool {
        self.requirements.iter().all(|r| r.violations.is_empty())
    }

    /// All bracket violations across requirements.
    pub fn violations(&self) -> Vec<&str> {
        self.requirements
            .iter()
            .flat_map(|r| r.violations.iter().map(String::as_str))
            .collect()
    }

    /// The reconciled comparison for `requirement`.
    pub fn for_requirement(&self, requirement: &str) -> Option<&RequirementComparison> {
        self.requirements.iter().find(|r| r.requirement == requirement)
    }
}

impl fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "portfolio comparison — query {}", self.query)?;
        for row in &self.rows {
            let attempts = if row.attempts > 1 {
                format!(" after {} attempts", row.attempts)
            } else {
                String::new()
            };
            match &row.outcome {
                Ok(report) => writeln!(
                    f,
                    "  {:<16} {} in {:.2?}{attempts}{}",
                    row.engine,
                    row.status,
                    report.wall_time,
                    report
                        .states_stored
                        .map(|s| format!(", {s} symbolic states"))
                        .unwrap_or_default(),
                )?,
                Err(e) => {
                    writeln!(f, "  {:<16} {}{attempts}: {e}", row.engine, row.status)?
                }
            }
        }
        for req in &self.requirements {
            writeln!(f, "  {} (deadline {}):", req.requirement, req.deadline)?;
            for (engine, estimate) in &req.estimates {
                writeln!(f, "    {engine:<16} {estimate}")?;
            }
            writeln!(f, "    {:<16} {}", "reconciled", req.reconciled)?;
            for violation in &req.violations {
                writeln!(f, "    BRACKET VIOLATION: {violation}")?;
            }
        }
        if let Some(v) = self.verdict {
            writeln!(f, "  verdict: {v}")?;
        }
        Ok(())
    }
}

/// Slack allowed in a [`Portfolio`]'s bracket checks: quantization of exact
/// results against the float and ceiling arithmetic of the baselines.
pub const BRACKET_TOLERANCE: TimeValue = TimeValue::micros(1);

/// A meta-engine fanning a query across several member engines and
/// reconciling their answers, asserting the paper's bracket invariant
/// (`simulation ≤ exact ≤ SymTA/S ≈ MPA`) along the way.
///
/// Member engines run behind the [`Engine::run_isolated`] unwind barrier and
/// the comparison degrades instead of failing: a member that panics, times
/// out, is truncated by a budget, declines, or fails transiently gets its
/// [`EngineStatus`] recorded in its row while reconciliation runs over the
/// survivors.  A transient failure ([`EngineError::is_transient`]) is retried
/// once under the context's one deadline; a truncated answer is kept as it
/// is.  The comparison errs only when *no* engine produced an answer or
/// the caller's own cancellation flag is set; bracket violations are
/// reported ([`ComparisonReport::violations`]), not raised.
#[derive(Default)]
pub struct Portfolio {
    engines: Vec<Box<dyn Engine>>,
}

impl Portfolio {
    /// An empty portfolio; add engines with [`Portfolio::with_engine`].
    pub fn new() -> Portfolio {
        Portfolio::default()
    }

    /// Adds an engine (builder style).
    pub fn with_engine(mut self, engine: Box<dyn Engine>) -> Portfolio {
        self.engines.push(engine);
        self
    }

    /// The member engines' names, in run order.
    pub fn engine_names(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.name()).collect()
    }

    /// Fans `query` across every member engine and reconciles the answers.
    ///
    /// Engines that decline ([`EngineError::Unsupported`]) are recorded but
    /// excluded from reconciliation.  Fails only when *no* engine produced an
    /// answer or the caller cancelled.
    pub fn compare(
        &self,
        model: &ArchitectureModel,
        query: &Query,
        ctx: &RunContext,
    ) -> Result<ComparisonReport, EngineError> {
        let mut rows: Vec<EngineRow> = Vec::with_capacity(self.engines.len());
        for engine in &self.engines {
            let (outcome, attempts) = {
                let _span = tempo_obs::span!("portfolio.engine", engine.name());
                run_with_retry(engine.as_ref(), model, query, ctx)
            };
            let status = EngineStatus::classify(&outcome);
            if !matches!(status, EngineStatus::Ok) {
                tempo_obs::event!(
                    "portfolio.degraded",
                    engine = engine.name(),
                    status = format!("{status:?}"),
                    attempts = attempts
                );
            }
            rows.push(EngineRow {
                engine: engine.name().into(),
                status,
                attempts,
                outcome,
            });
        }
        // Only the *caller's* cancellation aborts the comparison.  A
        // cancelled row whose flag we cannot observe (e.g. an injected
        // spurious cancellation) merely degrades that engine; the survivors
        // still reconcile.
        if ctx.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        if !rows.iter().any(|r| r.outcome.is_ok()) {
            // Surface the most informative failure: prefer anything over
            // `Unsupported`.
            let best = rows
                .iter()
                .filter_map(|r| r.outcome.as_ref().err())
                .find(|e| !matches!(e, EngineError::Unsupported { .. }))
                .or_else(|| rows.iter().filter_map(|r| r.outcome.as_ref().err()).next());
            return Err(best.cloned().unwrap_or(EngineError::Internal(
                "portfolio has no engines".into(),
            )));
        }

        // Requirement names, in the order the first successful engine reports
        // them.
        let mut names: Vec<String> = Vec::new();
        for row in &rows {
            if let Ok(report) = &row.outcome {
                for estimate in &report.estimates {
                    if !names.contains(&estimate.requirement) {
                        names.push(estimate.requirement.clone());
                    }
                }
            }
        }
        let requirements: Vec<RequirementComparison> = names
            .iter()
            .map(|name| self.reconcile(name, &rows))
            .collect();

        // Verdict queries: engines answer soundly in one direction each, so
        // agreement is the union of the directions; a hard conflict is a
        // bracket violation in verdict form.
        let verdicts: Vec<bool> = rows
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .filter_map(|r| r.verdict)
            .collect();
        let verdict = match (verdicts.iter().any(|v| *v), verdicts.iter().any(|v| !*v)) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            _ => None,
        };

        Ok(ComparisonReport {
            query: query.clone(),
            rows,
            requirements,
            verdict,
        })
    }

    fn reconcile(&self, requirement: &str, rows: &[EngineRow]) -> RequirementComparison {
        let mut estimates: Vec<(String, Estimate)> = Vec::new();
        let mut deadline: Option<TimeValue> = None;
        let mut meets: Vec<(String, bool)> = Vec::new();
        for row in rows {
            if let Ok(report) = &row.outcome {
                if let Some(e) = report.estimate_for(requirement) {
                    estimates.push((row.engine.clone(), e.estimate));
                    deadline.get_or_insert(e.deadline);
                    if let Some(v) = e.meets_deadline {
                        meets.push((row.engine.clone(), v));
                    }
                }
            }
        }
        let mut violations: Vec<String> = Vec::new();
        for i in 0..estimates.len() {
            for j in (i + 1)..estimates.len() {
                let (ref a_name, a) = estimates[i];
                let (ref b_name, b) = estimates[j];
                if !a.consistent_with(b, BRACKET_TOLERANCE) {
                    violations.push(format!(
                        "{requirement}: {a_name} {a} contradicts {b_name} {b}"
                    ));
                }
            }
        }
        let mut reconciled = estimates
            .first()
            .map(|(_, e)| *e)
            .expect("reconcile called only for reported requirements");
        for (_, estimate) in estimates.iter().skip(1) {
            // Contradictions are already recorded as violations; keep the
            // running reconciliation rather than poisoning it.
            if let Some(r) = reconciled.refined_with(*estimate) {
                reconciled = r;
            }
        }
        let meets_deadline = match (
            meets.iter().any(|(_, v)| *v),
            meets.iter().any(|(_, v)| !*v),
        ) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            (true, true) => {
                violations.push(format!(
                    "{requirement}: engines disagree on the deadline verdict ({meets:?})"
                ));
                None
            }
            (false, false) => None,
        };
        RequirementComparison {
            requirement: requirement.to_string(),
            deadline: deadline.unwrap_or(TimeValue::ZERO),
            estimates,
            reconciled,
            meets_deadline,
            violations,
        }
    }
}

/// Runs one member engine of a [`Portfolio`]: a transient failure
/// ([`EngineError::is_transient`]) is retried once as it was, and every
/// attempt stays under the context's one deadline.  Returns the outcome and
/// the attempt count.
fn run_with_retry(
    engine: &dyn Engine,
    model: &ArchitectureModel,
    query: &Query,
    ctx: &RunContext,
) -> (Result<EngineReport, EngineError>, usize) {
    let mut attempts = 0usize;
    loop {
        if ctx.is_expired() {
            return (Err(EngineError::TimedOut), attempts);
        }
        attempts += 1;
        match engine.run_isolated(model, query, ctx) {
            Err(e) if attempts == 1 && e.is_transient() => tempo_obs::event!(
                "portfolio.retry",
                engine = engine.name(),
                attempt = attempts,
                reason = format!("transient: {e}")
            ),
            outcome => return (outcome, attempts),
        }
    }
}

impl Engine for Portfolio {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn run(
        &self,
        model: &ArchitectureModel,
        query: &Query,
        ctx: &RunContext,
    ) -> Result<EngineReport, EngineError> {
        let started = Instant::now();
        let comparison = self.compare(model, query, ctx)?;
        let truncated = comparison
            .rows
            .iter()
            .any(|r| r.status == EngineStatus::Truncated);
        Ok(EngineReport {
            engine: "portfolio".into(),
            query: query.clone(),
            estimates: comparison
                .requirements
                .iter()
                .map(|r| RequirementEstimate {
                    requirement: r.requirement.clone(),
                    estimate: r.reconciled,
                    deadline: r.deadline,
                    meets_deadline: r.meets_deadline,
                })
                .collect(),
            verdict: comparison.verdict,
            wall_time: started.elapsed(),
            states_stored: None,
            truncated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EventModel, MeasurePoint, Requirement, Scenario, SchedulingPolicy, Step};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn two_task_model() -> ArchitectureModel {
        let mut m = ArchitectureModel::new("engine-test");
        let cpu = m.add_processor("CPU", 1, SchedulingPolicy::FixedPriorityPreemptive);
        let hi = m.add_scenario(Scenario {
            name: "hi".into(),
            stimulus: EventModel::Sporadic {
                min_interarrival: TimeValue::millis(20),
            },
            priority: 0,
            steps: vec![Step::Execute {
                operation: "short".into(),
                instructions: 2_000,
                on: cpu,
            }],
        });
        let lo = m.add_scenario(Scenario {
            name: "lo".into(),
            stimulus: EventModel::Sporadic {
                min_interarrival: TimeValue::millis(50),
            },
            priority: 1,
            steps: vec![Step::Execute {
                operation: "long".into(),
                instructions: 10_000,
                on: cpu,
            }],
        });
        m.add_requirement(Requirement {
            name: "hi-rt".into(),
            scenario: hi,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: TimeValue::millis(20),
        });
        m.add_requirement(Requirement {
            name: "lo-rt".into(),
            scenario: lo,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(0),
            deadline: TimeValue::millis(50),
        });
        m
    }

    #[test]
    fn estimate_bounds_and_refinement() {
        let e = Estimate::Exact(TimeValue::millis(12));
        let lb = Estimate::LowerBound(TimeValue::millis(11));
        let ub = Estimate::UpperBound(TimeValue::millis(14));
        assert_eq!(e.lower(), e.upper());
        assert!(e.is_exact());
        assert_eq!(lb.upper(), None);
        assert_eq!(ub.lower(), None);
        // Refinement tightens toward the exact value.
        assert_eq!(lb.refined_with(ub), Some(Estimate::Interval {
            lo: TimeValue::millis(11),
            hi: TimeValue::millis(14),
        }));
        assert_eq!(lb.refined_with(e), Some(e));
        assert_eq!(ub.refined_with(e), Some(e));
        // Contradictions are detected.
        let too_low = Estimate::UpperBound(TimeValue::millis(10));
        assert_eq!(lb.refined_with(too_low), None);
        assert!(!lb.consistent_with(too_low, TimeValue::ZERO));
        assert!(lb.consistent_with(too_low, TimeValue::millis(1)));
        assert!(lb.consistent_with(ub, TimeValue::ZERO));
        // Display is the one formatting convention.
        assert_eq!(e.to_string(), "= 12.000ms");
        assert_eq!(lb.to_string(), "\u{2265} 11.000ms");
        assert_eq!(ub.to_string(), "\u{2264} 14.000ms");
    }

    #[test]
    fn session_answers_typed_queries() {
        let model = two_task_model();
        let engine = TaEngine::default();
        let ctx = RunContext::default();
        let wcrt = engine.run(&model, &Query::wcrt("hi-rt"), &ctx).unwrap();
        assert_eq!(wcrt.estimates.len(), 1);
        assert_eq!(
            wcrt.estimates[0].estimate,
            Estimate::Exact(TimeValue::millis(2))
        );
        let deadline = engine.run(&model, &Query::deadline_check("lo-rt"), &ctx).unwrap();
        assert_eq!(deadline.verdict, Some(true));
        let queues = engine.run(&model, &Query::QueueBounds, &ctx).unwrap();
        assert_eq!(queues.verdict, Some(true));
        let unknown = engine.run(&model, &Query::wcrt("nope"), &ctx);
        assert!(matches!(unknown, Err(EngineError::UnknownRequirement(_))));
    }

    #[test]
    fn wall_clock_budget_yields_well_formed_lower_bound() {
        let model = two_task_model();
        let engine = TaEngine::default();
        let ctx = RunContext::with_wall_clock(Duration::ZERO);
        let report = engine.run(&model, &Query::wcrt("hi-rt"), &ctx).unwrap();
        // Nothing useful was explored, but the answer is a well-formed lower
        // bound rather than an error.
        assert!(matches!(
            report.estimates[0].estimate,
            Estimate::LowerBound(_)
        ));
        // A generous budget yields the exact value.
        let ctx = RunContext::with_wall_clock(Duration::from_secs(60));
        let report = engine.run(&model, &Query::wcrt("hi-rt"), &ctx).unwrap();
        assert_eq!(
            report.estimates[0].estimate,
            Estimate::Exact(TimeValue::millis(2))
        );
    }

    #[test]
    fn cancellation_maps_to_engine_error() {
        let model = two_task_model();
        let engine = TaEngine::default();
        let ctx = RunContext {
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..RunContext::default()
        };
        assert!(ctx.is_cancelled());
        let err = engine.run(&model, &Query::wcrt("hi-rt"), &ctx).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled));
    }

    #[test]
    fn ta_engine_capabilities_and_run() {
        let model = two_task_model();
        let engine = TaEngine::default();
        assert_eq!(engine.name(), "timed-automata");
        let report = engine
            .run(&model, &Query::WcrtAll, &RunContext::default())
            .unwrap();
        assert_eq!(report.engine, "timed-automata");
        assert_eq!(report.estimates.len(), 2);
        assert!(report.estimates.iter().all(|e| e.estimate.is_exact()));
        assert!(report.states_stored.unwrap() > 0);
    }

    #[test]
    fn portfolio_reconciles_and_checks_brackets() {
        /// A fake engine returning a fixed estimate for every requirement.
        struct Fixed(&'static str, Estimate);
        impl Engine for Fixed {
            fn name(&self) -> &'static str {
                self.0
            }
            fn run(
                &self,
                model: &ArchitectureModel,
                query: &Query,
                _ctx: &RunContext,
            ) -> Result<EngineReport, EngineError> {
                Ok(EngineReport {
                    engine: self.0.into(),
                    query: query.clone(),
                    estimates: model
                        .requirements
                        .iter()
                        .map(|r| RequirementEstimate {
                            requirement: r.name.clone(),
                            estimate: self.1,
                            deadline: r.deadline,
                            meets_deadline: None,
                        })
                        .collect(),
                    verdict: None,
                    wall_time: Duration::ZERO,
                    states_stored: None,
                    truncated: false,
                })
            }
        }

        let model = two_task_model();
        let lo = Estimate::LowerBound(TimeValue::millis(10));
        let hi = Estimate::UpperBound(TimeValue::millis(14));
        let portfolio = Portfolio::new()
            .with_engine(Box::new(Fixed("low", lo)))
            .with_engine(Box::new(Fixed("high", hi)));
        let report = portfolio
            .compare(&model, &Query::WcrtAll, &RunContext::default())
            .unwrap();
        assert!(report.bracket_ok());
        assert_eq!(report.requirements.len(), 2);
        assert_eq!(
            report.requirements[0].reconciled,
            Estimate::Interval {
                lo: TimeValue::millis(10),
                hi: TimeValue::millis(14),
            }
        );
        // A contradicting engine is caught by the bracket check.
        let broken = Portfolio::new()
            .with_engine(Box::new(Fixed("low", lo)))
            .with_engine(Box::new(Fixed("wrong", Estimate::UpperBound(TimeValue::millis(5)))));
        // The violation is reported, not raised: one per requirement, each
        // naming both engines.
        let report = broken
            .compare(&model, &Query::WcrtAll, &RunContext::default())
            .unwrap();
        assert!(!report.bracket_ok());
        let violations = report.violations();
        assert_eq!(violations.len(), report.requirements.len());
        assert!(violations
            .iter()
            .all(|v| v.contains("low") && v.contains("contradicts wrong")));
    }

    /// A fake engine whose `run` behavior is scripted per attempt.
    struct Scripted<F: Fn(usize, &RunContext) -> Result<EngineReport, EngineError>> {
        name: &'static str,
        calls: std::sync::atomic::AtomicUsize,
        script: F,
    }

    impl<F: Fn(usize, &RunContext) -> Result<EngineReport, EngineError>> Engine for Scripted<F> {
        fn name(&self) -> &'static str {
            self.name
        }
        fn run(
            &self,
            _model: &ArchitectureModel,
            _query: &Query,
            ctx: &RunContext,
        ) -> Result<EngineReport, EngineError> {
            let call = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            (self.script)(call, ctx)
        }
    }

    fn fixed_report(name: &str, model: &ArchitectureModel, est: Estimate) -> EngineReport {
        EngineReport {
            engine: name.into(),
            query: Query::WcrtAll,
            estimates: model
                .requirements
                .iter()
                .map(|r| RequirementEstimate {
                    requirement: r.name.clone(),
                    estimate: est,
                    deadline: r.deadline,
                    meets_deadline: None,
                })
                .collect(),
            verdict: None,
            wall_time: Duration::ZERO,
            states_stored: None,
            truncated: false,
        }
    }

    #[test]
    fn run_isolated_converts_panics_to_typed_errors() {
        quiet_injected_panics();
        let model = two_task_model();
        let bomb = Scripted {
            name: "bomb",
            calls: std::sync::atomic::AtomicUsize::new(0),
            script: |_, _: &RunContext| panic!("chaos-mock: engine detonated"),
        };
        let err = bomb
            .run_isolated(&model, &Query::WcrtAll, &RunContext::default())
            .unwrap_err();
        match err {
            EngineError::Panicked { engine, payload } => {
                assert_eq!(engine, "bomb");
                assert!(payload.contains("chaos-mock"));
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn portfolio_reconciles_survivors_around_a_panicking_engine() {
        quiet_injected_panics();
        let model = two_task_model();
        let lo = Estimate::LowerBound(TimeValue::millis(10));
        let hi = Estimate::UpperBound(TimeValue::millis(14));
        let portfolio = Portfolio::new()
            .with_engine(Box::new(Scripted {
                name: "low",
                calls: std::sync::atomic::AtomicUsize::new(0),
                script: move |_, _: &RunContext| Ok(fixed_report("low", &two_task_model(), lo)),
            }))
            .with_engine(Box::new(Scripted {
                name: "bomb",
                calls: std::sync::atomic::AtomicUsize::new(0),
                script: |_, _: &RunContext| panic!("chaos-mock: mid-portfolio panic"),
            }))
            .with_engine(Box::new(Scripted {
                name: "high",
                calls: std::sync::atomic::AtomicUsize::new(0),
                script: move |_, _: &RunContext| Ok(fixed_report("high", &two_task_model(), hi)),
            }));
        let report = portfolio
            .compare(&model, &Query::WcrtAll, &RunContext::default())
            .unwrap();
        // The panicking engine is isolated as a degraded row...
        let bomb = report.rows.iter().find(|r| r.engine == "bomb").unwrap();
        assert_eq!(bomb.status, EngineStatus::Panicked);
        assert!(matches!(bomb.outcome, Err(EngineError::Panicked { .. })));
        // ...and the survivors still reconcile to the full bracket.
        assert!(report.bracket_ok());
        assert_eq!(
            report.requirements[0].reconciled,
            Estimate::Interval {
                lo: TimeValue::millis(10),
                hi: TimeValue::millis(14),
            }
        );
        // The rendered report names the degraded status.
        let rendered = report.to_string();
        assert!(rendered.contains("panicked"));
    }

    #[test]
    fn transient_failures_are_retried_once_and_recover() {
        let model = two_task_model();
        let est = Estimate::LowerBound(TimeValue::millis(9));
        let portfolio = Portfolio::new().with_engine(Box::new(Scripted {
            name: "flaky",
            calls: std::sync::atomic::AtomicUsize::new(0),
            script: move |call, _: &RunContext| {
                if call == 0 {
                    Err(EngineError::Check(tempo_check::CheckError::Transient {
                        detail: "first attempt wobbles".into(),
                    }))
                } else {
                    Ok(fixed_report("flaky", &two_task_model(), est))
                }
            },
        }));
        let report = portfolio
            .compare(&model, &Query::WcrtAll, &RunContext::default())
            .unwrap();
        let row = &report.rows[0];
        assert_eq!(row.status, EngineStatus::Ok);
        assert_eq!(row.attempts, 2, "one transient failure, one retry");
        assert!(row.outcome.is_ok());
        // A second transient failure is final: there is no third attempt.
        let portfolio = Portfolio::new()
            .with_engine(Box::new(Scripted {
                name: "broken",
                calls: std::sync::atomic::AtomicUsize::new(0),
                script: |_, _: &RunContext| {
                    Err(EngineError::Check(tempo_check::CheckError::Transient {
                        detail: "every attempt wobbles".into(),
                    }))
                },
            }))
            .with_engine(Box::new(Scripted {
                name: "steady",
                calls: std::sync::atomic::AtomicUsize::new(0),
                script: move |_, _: &RunContext| Ok(fixed_report("steady", &two_task_model(), est)),
            }));
        let report = portfolio
            .compare(&model, &Query::WcrtAll, &RunContext::default())
            .unwrap();
        let row = &report.rows[0];
        assert_eq!(row.status, EngineStatus::Failed);
        assert_eq!(row.attempts, 2, "two transient failures, one retry");
    }

    #[test]
    fn truncated_results_are_kept_without_retry() {
        let model = two_task_model();
        let ctx = RunContext::with_max_states(600);
        let portfolio = Portfolio::new().with_engine(Box::new(Scripted {
            name: "budgeted",
            calls: std::sync::atomic::AtomicUsize::new(0),
            script: move |_, _: &RunContext| {
                let m = two_task_model();
                let mut r =
                    fixed_report("budgeted", &m, Estimate::LowerBound(TimeValue::millis(4)));
                r.truncated = true;
                Ok(r)
            },
        }));
        let report = portfolio.compare(&model, &Query::WcrtAll, &ctx).unwrap();
        assert_eq!(report.rows[0].attempts, 1);
        assert_eq!(report.rows[0].status, EngineStatus::Truncated);
    }
}
