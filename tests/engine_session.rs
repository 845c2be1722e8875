//! Session-level tests of the unified engine API: the batched
//! multi-observer `WcrtAll` path must generate the timed-automata network
//! **once** and still agree exactly with the classic one-network-per-
//! requirement analysis (a differential over the pseudo-random corpus and
//! the TDMA/burst fixtures), and the `RunContext` budget must degrade exact
//! answers to well-formed lower bounds instead of errors.

mod common;

use common::{burst_model, random_model, tdma_model};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tempo::arch::prelude::*;
use tempo::check::SearchProgress;
use tempo::engine::EngineError;

/// The exactness obligation of multi-observer batching: for every model of
/// the corpus and fixtures, one batched exploration answers every
/// requirement with the same WCRT, bound and deadline verdict as the
/// dedicated per-requirement networks — while generating only once.
#[test]
fn batched_wcrt_all_matches_per_requirement_analysis_everywhere() {
    let mut models: Vec<ArchitectureModel> = (0..8).map(random_model).collect();
    models.push(tdma_model());
    models.push(burst_model());
    for model in &models {
        let cfg = AnalysisConfig::default();
        let session = Session::new(model, cfg.clone()).unwrap();
        let batched = session.wcrt_all().unwrap();
        assert_eq!(
            session.generations(),
            1,
            "{}: WcrtAll must generate the network exactly once",
            model.name
        );
        assert_eq!(batched.len(), model.requirements.len());
        let mut dedicated = Session::new(model, cfg).unwrap();
        dedicated.set_batch_wcrt_all(false);
        let classic = dedicated.wcrt_all().unwrap();
        for (b, c) in batched.iter().zip(&classic) {
            assert_eq!(b.requirement, c.requirement);
            assert_eq!(
                b.wcrt, c.wcrt,
                "{}/{}: batched multi-observer WCRT differs from the dedicated network",
                model.name, b.requirement
            );
            assert_eq!(b.lower_bound, c.lower_bound, "{}/{}", model.name, b.requirement);
            assert_eq!(
                b.meets_deadline, c.meets_deadline,
                "{}/{}",
                model.name, b.requirement
            );
        }
    }
}

#[test]
fn session_caches_across_query_kinds() {
    let model = random_model(1);
    let session = Session::new(&model, AnalysisConfig::default()).unwrap();
    let ctx = RunContext::default();
    // WcrtAll: one batched network; repeated queries add nothing.
    session.run(&Query::WcrtAll, &ctx).unwrap();
    session.run(&Query::WcrtAll, &ctx).unwrap();
    assert_eq!(session.generations(), 1);
    // A dedicated drill-down network per requirement, generated once each.
    session.run(&Query::wcrt("r0"), &ctx).unwrap();
    session.run(&Query::deadline_check("r0"), &ctx).unwrap();
    session.run(&Query::Supremum { requirement: "r0".into() }, &ctx).unwrap();
    assert_eq!(session.generations(), 2);
    // The observer-free functional network for queue checks.
    let queues = session.run(&Query::QueueBounds, &ctx).unwrap();
    assert_eq!(queues.verdict, Some(true));
    session.run(&Query::QueueBounds, &ctx).unwrap();
    assert_eq!(session.generations(), 3);
}

/// Satellite: a wall-clock-budgeted query returns a well-formed lower-bound
/// report (not an error, not a malformed exact value), and the budget flows
/// through the typed query surface.
#[test]
fn wall_clock_budget_degrades_to_lower_bounds() {
    let model = burst_model();
    let session = Session::new(&model, AnalysisConfig::default()).unwrap();
    let ctx = RunContext::with_wall_clock(Duration::ZERO);
    let report = session.run(&Query::wcrt("lo-e2e"), &ctx).unwrap();
    let estimate = report.estimates[0].estimate;
    assert!(
        matches!(estimate, Estimate::LowerBound(_)),
        "budgeted query must yield a lower bound, got {estimate}"
    );
    // The unbudgeted run is exact, and at least as large as any lower bound.
    let exact = session
        .run(&Query::wcrt("lo-e2e"), &RunContext::default())
        .unwrap()
        .estimates[0]
        .estimate;
    assert!(exact.is_exact());
    assert!(estimate.consistent_with(exact, TimeValue::ZERO));
}

#[test]
fn state_budget_truncates_instead_of_erroring() {
    let model = burst_model();
    let session = Session::new(&model, AnalysisConfig::default()).unwrap();
    let ctx = RunContext::with_max_states(10);
    let report = session.run(&Query::wcrt("lo-e2e"), &ctx).unwrap();
    assert!(matches!(
        report.estimates[0].estimate,
        Estimate::LowerBound(_)
    ));
}

#[test]
fn cancellation_and_progress_flow_through_the_context() {
    let model = random_model(2);
    let session = Session::new(&model, AnalysisConfig::default()).unwrap();
    let cancelled = RunContext {
        cancel: Some(Arc::new(AtomicBool::new(true))),
        ..RunContext::default()
    };
    assert!(matches!(
        session.run(&Query::WcrtAll, &cancelled),
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
    session.run(&Query::WcrtAll, &watched).unwrap();
    // The default progress stride is 8192 states; small corpus models may
    // legitimately stay below it, so only assert the hook plumbing does not
    // break the query (the checker-level tests assert firing).
    let _ = calls.load(Ordering::Relaxed);
}
