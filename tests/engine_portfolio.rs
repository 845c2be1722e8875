//! The portfolio bracket property test (Section 5's Tables 1/2 as an
//! invariant): on every pseudo-randomly generated architecture and on the
//! fixtures, the four engines must satisfy
//!
//! ```text
//! SimEngine (lower) ≤ TaEngine (exact) ≤ { SymtaEngine, RtcEngine } (upper)
//! ```
//!
//! The corpus draws policies from the fixed-priority set only: under
//! `NonPreemptiveNd` the analytic baselines are not sound upper bounds (any
//! pending operation may be served next, so a job can wait for several
//! lower-priority jobs).  The Fischer fixture has no architecture-model form
//! (it is a raw timed-automata network) and is exercised by the reduction
//! differential harness instead.

mod common;

use common::{burst_model, random_model_with_policies, tdma_model, ANALYTIC_SOUND_POLICIES};
use tempo::arch::prelude::*;
use tempo::engine::{
    standard_portfolio, EngineError, EngineStatus, Portfolio, SimEngine, SymtaEngine, TaEngine,
};
use tempo::rtc::RtcEngine;
use tempo::sim::SimConfig;

/// The standard four-engine portfolio with a short simulation campaign (the
/// corpus models are tiny; 2 s of model time over 3 runs observes plenty).
fn test_portfolio() -> Portfolio {
    Portfolio::new()
        .with_engine(Box::new(TaEngine::default()))
        .with_engine(Box::new(SimEngine::with_config(SimConfig {
            horizon: TimeValue::seconds(2),
            runs: 3,
            seed: 0xb0bb1e,
        })))
        .with_engine(Box::new(SymtaEngine))
        .with_engine(Box::new(RtcEngine))
}

/// Asserts the full bracket on one model: pairwise consistency (the
/// portfolio's own check), plus the explicit orderings of the paper.
fn assert_bracket(model: &ArchitectureModel) {
    let portfolio = test_portfolio();
    let comparison = portfolio
        .compare(model, &Query::WcrtAll, &RunContext::default())
        .unwrap_or_else(|e| panic!("{}: portfolio failed: {e}", model.name));
    assert!(
        comparison.bracket_ok(),
        "{}: bracket violated: {:?}",
        model.name,
        comparison.violations()
    );
    for req in &comparison.requirements {
        let by_engine = |name: &str| {
            req.estimates
                .iter()
                .find(|(engine, _)| engine == name)
                .map(|(_, e)| *e)
        };
        let exact = by_engine("timed-automata")
            .unwrap_or_else(|| panic!("{}/{}: no exact estimate", model.name, req.requirement));
        let exact_value = exact
            .exact()
            .unwrap_or_else(|| panic!("{}/{}: exact engine not exact", model.name, req.requirement));
        if let Some(sim) = by_engine("simulation") {
            let lb = sim.lower().expect("simulation yields lower bounds");
            assert!(
                lb <= exact_value + TimeValue::micros(1),
                "{}/{}: simulation {lb:?} above exact {exact_value:?}",
                model.name,
                req.requirement
            );
        }
        for analytic in ["symta", "mpa"] {
            if let Some(upper) = by_engine(analytic) {
                let ub = upper.upper().expect("analytic engines yield upper bounds");
                assert!(
                    exact_value <= ub + TimeValue::micros(1),
                    "{}/{}: exact {exact_value:?} above {analytic} bound {ub:?}",
                    model.name,
                    req.requirement
                );
            }
        }
        // With an exact engine in the mix, reconciliation pins the value.
        assert_eq!(req.reconciled, exact, "{}/{}", model.name, req.requirement);
    }
}

#[test]
fn bracket_holds_on_generated_corpus() {
    for seed in 0..8u64 {
        let model = random_model_with_policies(seed, &ANALYTIC_SOUND_POLICIES);
        assert_bracket(&model);
    }
}

#[test]
fn bracket_holds_on_burst_fixture() {
    assert_bracket(&burst_model());
}

/// On the TDMA fixture the analytic engines must *decline* (their busy-window
/// resource model does not cover slot gating, so their "bounds" would be
/// unsafe) and the remaining sim-vs-exact half of the bracket must hold.
#[test]
fn tdma_fixture_declined_by_analytic_engines_but_bracketed_by_simulation() {
    let model = tdma_model();
    let portfolio = test_portfolio();
    let comparison = portfolio
        .compare(&model, &Query::WcrtAll, &RunContext::default())
        .unwrap();
    for engine in ["symta", "mpa"] {
        let row = comparison.rows.iter().find(|r| r.engine == engine).unwrap();
        assert!(
            matches!(row.outcome, Err(EngineError::Unsupported { .. })),
            "{engine} should decline TDMA models"
        );
    }
    assert!(comparison.bracket_ok());
    for req in &comparison.requirements {
        assert_eq!(req.estimates.len(), 2, "only ta + sim answered");
        assert!(req.reconciled.is_exact());
    }
}

/// The quick case-study column end to end through the standard portfolio —
/// the paper's own architecture under the new API.
#[test]
fn bracket_holds_on_quick_case_study_column() {
    use tempo::arch::casestudy::{
        radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo,
    };
    let mut params = CaseStudyParams::default();
    params.volume_period = params.volume_period * 8;
    params.lookup_period = params.lookup_period * 8;
    let model = radio_navigation(
        ScenarioCombo::AddressLookupWithTmc,
        EventModelColumn::Sporadic,
        &params,
    );
    // The case study uses the paper's non-deterministic non-preemptive
    // scheduler, where the analytic baselines are heuristic comparators (as
    // in Table 2) rather than proven upper bounds: assert only the sound
    // half plus pairwise reporting.
    let portfolio = Portfolio::new()
        .with_engine(Box::new(TaEngine::default()))
        .with_engine(Box::new(SimEngine::with_config(SimConfig {
            horizon: TimeValue::seconds(60),
            runs: 2,
            seed: 7,
        })));
    let comparison = portfolio
        .compare(&model, &Query::wcrt("AddressLookup (+ HandleTMC)"), &RunContext::default())
        .unwrap();
    assert!(comparison.bracket_ok(), "{:?}", comparison.violations());
    let req = &comparison.requirements[0];
    assert!(req.reconciled.is_exact());
    assert_eq!(req.meets_deadline, Some(true));
}

/// `standard_portfolio` wires all four engines in the documented order, and
/// only the exact engine answers queue boundedness: the others decline it.
#[test]
fn standard_portfolio_lineup() {
    let portfolio = standard_portfolio();
    assert_eq!(
        portfolio.engine_names(),
        vec!["timed-automata", "simulation", "symta", "mpa"]
    );
    let report = portfolio
        .compare(&burst_model(), &Query::QueueBounds, &RunContext::default())
        .unwrap();
    assert_eq!(report.verdict, Some(true));
    let statuses: Vec<EngineStatus> = report.rows.iter().map(|r| r.status).collect();
    assert_eq!(
        statuses,
        [
            EngineStatus::Ok,
            EngineStatus::Declined,
            EngineStatus::Declined,
            EngineStatus::Declined
        ]
    );
}
