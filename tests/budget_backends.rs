//! Budget expiry on every search configuration: on the bursty fixture, an
//! exhausted wall-clock or state budget must degrade the exact engine to a
//! *well-formed lower bound* — under the default configuration and the
//! reference one (no active-clock reduction, no exact zone merging) alike —
//! and a generous budget must still converge to the exact value.

mod common;

use common::{burst_model, reference_config};
use tempo::arch::prelude::*;
use tempo::engine::{Engine, TaEngine};

/// Every configuration: the default and the reference.
fn backends() -> Vec<(&'static str, AnalysisConfig)> {
    vec![
        ("default-seq", AnalysisConfig::default()),
        ("reference-seq", reference_config()),
    ]
}

fn exact_truth() -> TimeValue {
    let report = TaEngine::default()
        .run(&burst_model(), &Query::wcrt("lo-e2e"), &RunContext::default())
        .unwrap();
    report.estimates[0]
        .estimate
        .exact()
        .expect("unbudgeted run is exact")
}

#[test]
fn exhausted_budgets_yield_well_formed_lower_bounds_on_every_backend() {
    let model = burst_model();
    let truth = exact_truth();
    let budgets: Vec<(&str, RunContext)> = vec![
        (
            "wall-clock=0",
            RunContext::with_wall_clock(std::time::Duration::ZERO),
        ),
        ("max-states=16", RunContext::with_max_states(16)),
    ];
    for (backend, cfg) in backends() {
        let engine = TaEngine::with_config(cfg);
        for (budget, ctx) in &budgets {
            let report = engine
                .run(&model, &Query::wcrt("lo-e2e"), ctx)
                .unwrap_or_else(|e| panic!("{backend}/{budget}: budget expiry errored: {e}"));
            assert!(
                report.truncated,
                "{backend}/{budget}: an exhausted budget must mark the report truncated"
            );
            let est = report.estimates[0].estimate;
            match est {
                Estimate::LowerBound(lb) => assert!(
                    lb <= truth,
                    "{backend}/{budget}: truncated lower bound {lb:?} above exact {truth:?}"
                ),
                other => panic!("{backend}/{budget}: expected a lower bound, got {other}"),
            }
        }
    }
}

#[test]
fn generous_budgets_converge_to_the_exact_value_on_every_backend() {
    let model = burst_model();
    let truth = exact_truth();
    for (backend, cfg) in backends() {
        let engine = TaEngine::with_config(cfg);
        let ctx = RunContext::with_wall_clock(std::time::Duration::from_secs(60));
        let report = engine.run(&model, &Query::wcrt("lo-e2e"), &ctx).unwrap();
        assert!(!report.truncated, "{backend}: a generous budget truncated");
        assert_eq!(
            report.estimates[0].estimate,
            Estimate::Exact(truth),
            "{backend}"
        );
    }
}

/// The production default collapses the burst fixture: a cold `AnalysisDb`
/// run under `AnalysisConfig::default()` and a state budget between the
/// default and reference state counts of the burst fixture must still answer
/// exactly, while the reference configuration overruns the same budget.
#[test]
fn default_config_answers_exactly_within_a_budget_the_reference_overruns() {
    let model = burst_model();
    let query = Query::wcrt("lo-e2e");
    let run = |cfg: AnalysisConfig, ctx: &RunContext| {
        TaEngine::with_config(cfg).run(&model, &query, ctx).unwrap()
    };
    let stored = |cfg| run(cfg, &RunContext::default()).states_stored.unwrap();
    let (default, reference_states) = (stored(AnalysisConfig::default()), stored(reference_config()));
    assert!(
        default < reference_states,
        "the default should store fewer states than the reference ({default} vs {reference_states})"
    );
    let budget = RunContext::with_max_states((default + reference_states) / 2);

    let db = AnalysisDb::new(AnalysisConfig::default());
    let report = db.run(&model, &query, &budget).unwrap();
    assert!(
        !report.truncated,
        "the default path overran {default}..{reference_states}"
    );
    assert_eq!(report.estimates[0].estimate, Estimate::Exact(exact_truth()));
    assert!(
        run(reference_config(), &budget).truncated,
        "the budget does not separate the configurations"
    );
}

/// One run context has one deadline: a `WcrtAll` query on the paper-parameter
/// `bur` ChangeVolume model, whose four requirements each outrun the budget,
/// stops by that deadline instead of granting each requirement a fresh
/// budget.  Checked for a budget fixed by `with_wall_clock` and for an
/// absolute `deadline` alike.
#[test]
fn wcrt_all_stops_by_the_one_deadline_of_its_context() {
    use std::time::{Duration, Instant};
    use tempo::arch::casestudy::{
        radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo,
    };
    let model = radio_navigation(
        ScenarioCombo::ChangeVolumeWithTmc,
        EventModelColumn::Burst,
        &CaseStudyParams::default(),
    );
    assert!(
        model.requirements.len() > 1,
        "the query must span several explorations"
    );
    let budget = Duration::from_millis(200);
    for name in ["with_wall_clock", "deadline"] {
        let started = Instant::now();
        let ctx = match name {
            "with_wall_clock" => RunContext::with_wall_clock(budget),
            _ => RunContext {
                deadline: Some(started + budget),
                ..RunContext::default()
            },
        };
        let report = TaEngine::default()
            .run(&model, &Query::WcrtAll, &ctx)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let elapsed = started.elapsed();
        assert!(
            report.truncated,
            "{name}: the model does not outrun the budget"
        );
        assert_eq!(report.estimates.len(), model.requirements.len(), "{name}");
        assert!(
            elapsed < 2 * budget,
            "{name}: answered after {elapsed:?}, budget {budget:?}"
        );
    }
}
