//! Budget expiry on every storage backend (satellite of the robustness PR):
//! on the bursty fixture, an exhausted wall-clock or state budget must
//! degrade the exact engine to a *well-formed lower bound* — on the flat and
//! federation passed lists, sequential and sharded-parallel alike — and a
//! generous budget must still converge to the exact value.

mod common;

use common::burst_model;
use tempo::arch::prelude::*;
use tempo::check::{ParallelOptions, SearchOptions, StorageKind};
use tempo::engine::{Engine, TaEngine};

/// Every storage backend: {flat, federation} × {sequential, sharded parallel}.
fn backends() -> Vec<(&'static str, AnalysisConfig)> {
    let mut out = Vec::new();
    for (storage_name, storage) in [("flat", StorageKind::Flat), ("federation", StorageKind::Federation)] {
        for (mode, parallel) in [
            ("seq", None),
            ("sharded-par", Some(ParallelOptions::with_workers(2))),
        ] {
            let mut cfg = AnalysisConfig {
                search: SearchOptions::with_storage(storage),
                ..AnalysisConfig::default()
            };
            cfg.parallel = parallel;
            out.push((
                match (storage_name, mode) {
                    ("flat", "seq") => "flat-seq",
                    ("flat", "sharded-par") => "sharded-flat",
                    ("federation", "seq") => "federation-seq",
                    _ => "sharded-federation",
                },
                cfg,
            ));
        }
    }
    out
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

/// The production default explores with the federation store: a cold
/// `AnalysisDb` run under `AnalysisConfig::default()` and a state budget
/// between the federation and flat state counts of the burst fixture must
/// still answer exactly, while the flat oracle overruns the same budget.
#[test]
fn default_config_answers_exactly_within_a_budget_flat_storage_overruns() {
    let model = burst_model();
    let query = Query::wcrt("lo-e2e");
    let run = |storage, ctx: &RunContext| {
        TaEngine::with_config(AnalysisConfig {
            search: SearchOptions::with_storage(storage),
            ..AnalysisConfig::default()
        })
        .run(&model, &query, ctx)
        .unwrap()
    };
    let stored = |storage| run(storage, &RunContext::default()).states_stored.unwrap();
    let (flat, federation) = (stored(StorageKind::Flat), stored(StorageKind::Federation));
    assert!(
        federation < flat,
        "federation should store fewer states than flat ({federation} vs {flat})"
    );
    let budget = RunContext::with_max_states((federation + flat) / 2);

    let db = AnalysisDb::new(AnalysisConfig::default());
    let report = db.run(&model, &query, &budget).unwrap();
    assert!(
        !report.truncated,
        "the default path overran {federation}..{flat}"
    );
    assert_eq!(report.estimates[0].estimate, Estimate::Exact(exact_truth()));
    assert!(
        run(StorageKind::Flat, &budget).truncated,
        "the budget does not separate the stores"
    );
}
