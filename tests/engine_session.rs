//! Engine-level tests of the unified engine API: the exact engine answers
//! every typed query through its analysis database, so repeated queries
//! (directly or through a portfolio) generate and explore nothing, and the
//! `RunContext` budget must degrade exact answers to well-formed lower
//! bounds instead of errors.

mod common;

use common::{burst_model, random_model};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tempo::arch::prelude::*;
use tempo::check::SearchProgress;
use tempo::engine::{EngineError, SymtaEngine};

#[test]
fn session_caches_across_query_kinds() {
    let model = random_model(1);
    let engine = TaEngine::default();
    let ctx = RunContext::default();
    let generations = || engine.db().stats().generations;
    // WcrtAll: one network per requirement; repeated queries add nothing.
    engine.run(&model, &Query::WcrtAll, &ctx).unwrap();
    let per_requirement = model.requirements.len() as u64;
    assert_eq!(generations(), per_requirement);
    engine.run(&model, &Query::WcrtAll, &ctx).unwrap();
    assert_eq!(generations(), per_requirement);
    // Drill-downs on one requirement answer from its cached estimate.
    engine.run(&model, &Query::wcrt("r0"), &ctx).unwrap();
    engine.run(&model, &Query::deadline_check("r0"), &ctx).unwrap();
    assert_eq!(generations(), per_requirement);
    // The observer-free functional network for queue checks.
    let queues = engine.run(&model, &Query::QueueBounds, &ctx).unwrap();
    assert_eq!(queues.verdict, Some(true));
    engine.run(&model, &Query::QueueBounds, &ctx).unwrap();
    assert_eq!(generations(), per_requirement + 1);
}

#[test]
fn repeated_engine_query_is_a_cache_hit() {
    let model = random_model(1);
    let engine = TaEngine::default();
    let ctx = RunContext::default();
    let cold = engine.run(&model, &Query::wcrt("r0"), &ctx).unwrap();
    assert_eq!(engine.db().stats().counts(), (0, 1, 0, 1), "one miss");
    let warm = engine.run(&model, &Query::wcrt("r0"), &ctx).unwrap();
    assert_eq!(engine.db().stats().counts(), (1, 1, 0, 1), "then one hit");
    assert_eq!(warm.engine, "timed-automata");
    assert_eq!(warm.estimates[0].estimate, cold.estimates[0].estimate);
}

/// A portfolio member sharing one `TaEngine` with the test, so the test can
/// read the engine's database counters after the portfolio ran.
struct SharedTa(Arc<TaEngine>);

impl Engine for SharedTa {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn run(
        &self,
        model: &ArchitectureModel,
        query: &Query,
        ctx: &RunContext,
    ) -> Result<EngineReport, EngineError> {
        self.0.run(model, query, ctx)
    }
}

#[test]
fn repeated_portfolio_compare_answers_the_exact_row_from_the_cache() {
    let model = random_model(1);
    let ta = Arc::new(TaEngine::default());
    let portfolio = Portfolio::new()
        .with_engine(Box::new(SharedTa(Arc::clone(&ta))))
        .with_engine(Box::new(SymtaEngine));
    let query = Query::wcrt("r0");
    let ctx = RunContext::default();
    let first = portfolio.compare(&model, &query, &ctx).unwrap();
    assert_eq!(ta.db().stats().counts(), (0, 1, 0, 1));
    let second = portfolio.compare(&model, &query, &ctx).unwrap();
    assert_eq!(
        ta.db().stats().counts(),
        (1, 1, 0, 1),
        "the repeated exact row must be answered from the cache"
    );
    let exact = |report: &tempo::engine::ComparisonReport| {
        report.rows[0].outcome.as_ref().unwrap().estimates[0].estimate
    };
    assert!(exact(&first).is_exact());
    assert_eq!(exact(&first), exact(&second));
}

/// Satellite: a wall-clock-budgeted query returns a well-formed lower-bound
/// report (not an error, not a malformed exact value), and the budget flows
/// through the typed query surface.
#[test]
fn wall_clock_budget_degrades_to_lower_bounds() {
    let model = burst_model();
    let engine = TaEngine::default();
    let ctx = RunContext::with_wall_clock(Duration::ZERO);
    let report = engine.run(&model, &Query::wcrt("lo-e2e"), &ctx).unwrap();
    let estimate = report.estimates[0].estimate;
    assert!(
        matches!(estimate, Estimate::LowerBound(_)),
        "budgeted query must yield a lower bound, got {estimate}"
    );
    // The unbudgeted run is exact, and at least as large as any lower bound.
    let exact = engine
        .run(&model, &Query::wcrt("lo-e2e"), &RunContext::default())
        .unwrap()
        .estimates[0]
        .estimate;
    assert!(exact.is_exact());
    assert!(estimate.consistent_with(exact, TimeValue::ZERO));
}

#[test]
fn state_budget_truncates_instead_of_erroring() {
    let model = burst_model();
    let engine = TaEngine::default();
    let ctx = RunContext::with_max_states(10);
    let report = engine.run(&model, &Query::wcrt("lo-e2e"), &ctx).unwrap();
    assert!(matches!(
        report.estimates[0].estimate,
        Estimate::LowerBound(_)
    ));
}

#[test]
fn cancellation_and_progress_flow_through_the_context() {
    let model = random_model(2);
    let engine = TaEngine::default();
    let cancelled = RunContext {
        cancel: Some(Arc::new(AtomicBool::new(true))),
        ..RunContext::default()
    };
    assert!(matches!(
        engine.run(&model, &Query::WcrtAll, &cancelled),
        Err(EngineError::Cancelled)
    ));
    let calls = Arc::new(AtomicUsize::new(0));
    let calls_in_hook = Arc::clone(&calls);
    let watched = RunContext {
        progress: Some(Arc::new(move |_p: &SearchProgress| {
            calls_in_hook.fetch_add(1, Ordering::Relaxed);
        })),
        ..RunContext::default()
    };
    engine.run(&model, &Query::WcrtAll, &watched).unwrap();
    // The default progress stride is 8192 states; small corpus models may
    // legitimately stay below it, so only assert the hook plumbing does not
    // break the query (the checker-level tests assert firing).
    let _ = calls.load(Ordering::Relaxed);
}
