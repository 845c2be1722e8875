//! The chaos differential harness: every engine, under deterministic fault
//! injection, must return the fault-free answer, a sound bound of it, or a
//! typed error — **never** a divergent verdict.
//!
//! A seeded [`FaultPlan`] threaded through [`RunContext::faults`] injects
//! panics, spurious cancellations, budget exhaustion and transient errors at
//! instrumented points (engine entry, store inserts, successor generation,
//! progress callbacks).  The harness sweeps a matrix of fault seeds over the
//! generated corpus and the TDMA/burst fixtures, on all four engines and on
//! two search stacks (the default configuration and the reference one with
//! active-clock reduction and exact zone merging off), and compares every
//! answer against the fault-free exact baseline.
//!
//! Extra seeds can be swept from the environment (the CI chaos job does):
//! `TEMPO_FAULT_SEED=12345 cargo test --test chaos_differential`.

mod common;

use common::{
    burst_model, random_model_with_policies, reference_config, tdma_model,
    ANALYTIC_SOUND_POLICIES,
};
use std::collections::HashMap;
use std::sync::Arc;
use tempo::arch::prelude::*;
use tempo::check::{FaultKind, FaultPlan, FaultSite};
use tempo::engine::{
    quiet_injected_panics, Engine, EngineError, EngineReport, EngineStatus, Portfolio, SimEngine,
    SymtaEngine, TaEngine,
};
use tempo::rtc::RtcEngine;
use tempo::sim::SimConfig;

/// Estimates within a microsecond count as agreeing (the bracket tolerance
/// used by the portfolio itself).
fn tolerance() -> TimeValue {
    TimeValue::micros(1)
}

/// The search stacks swept: the production default and the reference
/// configuration (no active-clock reduction, no exact zone merging).
fn stacks() -> Vec<(&'static str, AnalysisConfig)> {
    vec![
        ("default-seq", AnalysisConfig::default()),
        ("reference-seq", reference_config()),
    ]
}

/// All four engines, with the exact engine on the given stack and a short
/// simulation campaign (the fixture models are tiny).
fn engines(cfg: &AnalysisConfig) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(TaEngine::with_config(cfg.clone())),
        Box::new(SimEngine::with_config(SimConfig {
            horizon: TimeValue::seconds(2),
            runs: 3,
            seed: 0xb0bb1e,
        })),
        Box::new(SymtaEngine),
        Box::new(RtcEngine),
    ]
}

/// The fault seeds to sweep: eight fixed ones plus any `TEMPO_FAULT_SEED`
/// from the environment (the CI matrix sets it).
fn fault_seeds() -> Vec<u64> {
    let mut seeds: Vec<u64> = (0..8u64).map(|i| 0xC0FFEE ^ (i * 0x9E37)).collect();
    if let Ok(extra) = std::env::var("TEMPO_FAULT_SEED") {
        if let Ok(seed) = extra.trim().parse::<u64>() {
            seeds.push(seed);
        }
    }
    seeds
}

/// The fault-free ground truth of one model: the exact WCRT per requirement
/// and the deadline verdict of the first requirement.
struct Baseline {
    truth: HashMap<String, TimeValue>,
    first_requirement: String,
    first_verdict: Option<bool>,
}

fn baseline(model: &ArchitectureModel) -> Baseline {
    let ta = TaEngine::default();
    let ctx = RunContext::default();
    let report = ta.run(model, &Query::WcrtAll, &ctx).unwrap();
    let truth = report
        .estimates
        .iter()
        .map(|e| (e.requirement.clone(), e.estimate.exact().unwrap()))
        .collect();
    let first_requirement = model.requirements[0].name.clone();
    let first_verdict = ta
        .run(model, &Query::deadline_check(&first_requirement), &ctx)
        .unwrap()
        .verdict;
    Baseline {
        truth,
        first_requirement,
        first_verdict,
    }
}

/// Asserts one faulted outcome never diverges from the baseline: an `Ok`
/// answer must be consistent with the exact truth (and equal to it where it
/// claims exactness), a verdict must be the baseline's or abstain, and an
/// `Err` must be a typed degradation, not a model/requirement error.
fn assert_sound(
    context: &str,
    base: &Baseline,
    outcome: &Result<EngineReport, EngineError>,
    query: &Query,
) {
    match outcome {
        Ok(report) => {
            for est in &report.estimates {
                let truth = Estimate::Exact(base.truth[&est.requirement]);
                assert!(
                    est.estimate.consistent_with(truth, tolerance()),
                    "{context}: {} estimate {} diverges from truth {}",
                    est.requirement,
                    est.estimate,
                    truth,
                );
                if est.estimate.is_exact() {
                    assert!(
                        est.estimate.consistent_with(truth, TimeValue::ZERO)
                            && truth.consistent_with(est.estimate, TimeValue::ZERO),
                        "{context}: {} claims exactness but {} != {}",
                        est.requirement,
                        est.estimate,
                        truth,
                    );
                }
            }
            if matches!(query, Query::DeadlineCheck { .. }) {
                assert!(
                    report.verdict.is_none() || report.verdict == base.first_verdict,
                    "{context}: verdict {:?} diverges from baseline {:?}",
                    report.verdict,
                    base.first_verdict,
                );
            }
        }
        Err(e) => match e {
            EngineError::Unsupported { .. }
            | EngineError::Cancelled
            | EngineError::TimedOut
            | EngineError::Panicked { .. }
            | EngineError::Check(_)
            | EngineError::Internal(_) => {}
            other => panic!("{context}: fault degraded into a non-degradation error: {other}"),
        },
    }
}

#[test]
fn faulted_engines_never_diverge_from_the_baseline() {
    quiet_injected_panics();
    let models: Vec<ArchitectureModel> = (0..3u64)
        .map(|seed| random_model_with_policies(seed, &ANALYTIC_SOUND_POLICIES))
        .chain([tdma_model(), burst_model()])
        .collect();
    let seeds = fault_seeds();
    let mut injected_total = 0usize;
    for model in &models {
        let base = baseline(model);
        let queries = [
            Query::WcrtAll,
            Query::deadline_check(&base.first_requirement),
        ];
        for (stack, cfg) in stacks() {
            for &seed in &seeds {
                for engine in engines(&cfg) {
                    for query in &queries {
                        // A fresh plan per run: the one-shot rules re-arm, so
                        // every engine sees its share of faults.
                        let plan = Arc::new(FaultPlan::from_seed(seed));
                        let ctx = RunContext {
                            faults: Some(plan.clone()),
                            ..RunContext::default()
                        };
                        let context = format!(
                            "{}/{stack}/seed={seed:#x}/{}/{query:?}",
                            model.name,
                            engine.name(),
                        );
                        let outcome = engine.run_isolated(model, query, &ctx);
                        assert_sound(&context, &base, &outcome, query);
                        injected_total += plan.injected();
                    }
                }
            }
        }
    }
    assert!(
        injected_total > 0,
        "the fault matrix never actually injected a fault"
    );
}

/// The full portfolio under fault injection: `compare` either reconciles
/// (with every per-engine row carrying a typed status) or fails with a typed
/// error — and whatever it reconciles is consistent with the truth.
#[test]
fn faulted_portfolio_reconciles_soundly() {
    quiet_injected_panics();
    let model = burst_model();
    let base = baseline(&model);
    for seed in fault_seeds() {
        for (stack, cfg) in stacks() {
            let plan = Arc::new(FaultPlan::from_seed(seed));
            let ctx = RunContext {
                faults: Some(plan),
                ..RunContext::default()
            };
            let mut portfolio = Portfolio::new();
            for engine in engines(&cfg) {
                portfolio = portfolio.with_engine(engine);
            }
            match portfolio.compare(&model, &Query::WcrtAll, &ctx) {
                Ok(report) => {
                    assert!(
                        report.bracket_ok(),
                        "burst/{stack}/seed={seed:#x}: bracket violated under faults: {:?}",
                        report.violations()
                    );
                    for req in &report.requirements {
                        let truth = Estimate::Exact(base.truth[&req.requirement]);
                        assert!(
                            req.reconciled.consistent_with(truth, tolerance()),
                            "burst/{stack}/seed={seed:#x}: reconciled {} vs truth {}",
                            req.reconciled,
                            truth,
                        );
                    }
                }
                // Every engine degraded — acceptable, as long as it is typed.
                Err(e) => assert_sound(
                    &format!("burst/{stack}/seed={seed:#x}/portfolio"),
                    &base,
                    &Err(e),
                    &Query::WcrtAll,
                ),
            }
        }
    }
}

/// An engine declines `QueueBounds` before it polls the engine-entry fault
/// site, so a query it never answers does not shift which engine a seeded
/// rule hits.  The analytic engines' TDMA refusal stays after the poll.
#[test]
fn declined_queue_bounds_poll_no_fault_site() {
    let entry_fault = || {
        let plan = Arc::new(FaultPlan::single(
            FaultSite::EngineEntry,
            FaultKind::TransientError,
            0,
        ));
        let ctx = RunContext {
            faults: Some(Arc::clone(&plan)),
            ..RunContext::default()
        };
        (plan, ctx)
    };
    let decliners: [Box<dyn Engine>; 3] = [
        Box::new(SimEngine::default()),
        Box::new(SymtaEngine),
        Box::new(RtcEngine),
    ];
    for engine in &decliners {
        let (plan, ctx) = entry_fault();
        let declined = engine.run(&burst_model(), &Query::QueueBounds, &ctx);
        assert!(
            matches!(declined, Err(EngineError::Unsupported { .. })),
            "{}: {declined:?}",
            engine.name()
        );
        assert_eq!(plan.injected(), 0, "{} polled a fault site", engine.name());
    }
    for engine in &decliners[1..] {
        let (plan, ctx) = entry_fault();
        let polled = engine.run(&tdma_model(), &Query::WcrtAll, &ctx);
        assert!(matches!(polled, Err(EngineError::Check(_))), "{}: {polled:?}", engine.name());
        assert_eq!(plan.injected(), 1);
    }
}

/// A deliberately panicking engine in the line-up must never prevent the
/// portfolio from reconciling the survivors (the acceptance criterion).
#[test]
fn panicking_mock_engine_never_blocks_reconciliation() {
    quiet_injected_panics();

    struct Bomb;
    impl Engine for Bomb {
        fn name(&self) -> &'static str {
            "bomb"
        }
        fn run(
            &self,
            _model: &ArchitectureModel,
            _query: &Query,
            _ctx: &RunContext,
        ) -> Result<EngineReport, EngineError> {
            panic!("chaos-mock: unconditional engine panic");
        }
    }

    for model in [burst_model(), tdma_model()] {
        let base = baseline(&model);
        let portfolio = Portfolio::new()
            .with_engine(Box::new(TaEngine::default()))
            .with_engine(Box::new(Bomb))
            .with_engine(Box::new(SimEngine::with_config(SimConfig {
                horizon: TimeValue::seconds(2),
                runs: 3,
                seed: 0xb0bb1e,
            })));
        let report = portfolio
            .compare(&model, &Query::WcrtAll, &RunContext::default())
            .unwrap_or_else(|e| panic!("{}: panicking engine leaked: {e}", model.name));
        let bomb = report.rows.iter().find(|r| r.engine == "bomb").unwrap();
        assert_eq!(bomb.status, EngineStatus::Panicked);
        assert!(matches!(bomb.outcome, Err(EngineError::Panicked { .. })));
        assert!(report.bracket_ok());
        for req in &report.requirements {
            assert_eq!(
                req.reconciled,
                Estimate::Exact(base.truth[&req.requirement]),
                "{}: survivors must still pin the exact value",
                model.name,
            );
        }
    }
}

/// The quick case-study column under two fault seeds: the paper's own
/// architecture keeps its exact verdict or degrades in a typed way.
#[test]
fn faulted_case_study_column_stays_sound() {
    use tempo::arch::casestudy::{
        radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo,
    };
    quiet_injected_panics();
    let mut params = CaseStudyParams::default();
    params.volume_period = params.volume_period * 8;
    params.lookup_period = params.lookup_period * 8;
    let model = radio_navigation(
        ScenarioCombo::AddressLookupWithTmc,
        EventModelColumn::Sporadic,
        &params,
    );
    let base = baseline(&model);
    let query = Query::wcrt(&base.first_requirement);
    for seed in [0xD15EA5Eu64, 0xFEEDFACE] {
        let plan = Arc::new(FaultPlan::from_seed(seed));
        let ctx = RunContext {
            faults: Some(plan),
            ..RunContext::default()
        };
        let ta = TaEngine::default();
        let outcome = ta.run_isolated(&model, &query, &ctx);
        assert_sound(
            &format!("case-study/seed={seed:#x}/timed-automata"),
            &base,
            &outcome,
            &query,
        );
    }
}
